/* Edit fixture for `check --remote`: the statements of `before/edge.c`
 * with `x = &b;` moved into an else arm. Only the edges changed, and
 * `x` is NULL at the dereference when `c` holds. */
int b;
int c;
int *x;
int y;

void main() {
    if (c) {
        x = NULL;
    } else {
        x = &b;
    }
    y = *x;
}
