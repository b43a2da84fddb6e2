/* Edit fixture for `check --remote`: `after/edge.c` has the same
 * statements and moves `x = &b;` into an else arm. Here the NULL is
 * killed before the dereference, so the program is clean. */
int b;
int c;
int *x;
int y;

void main() {
    if (c) {
        x = NULL;
    }
    x = &b;
    y = *x;
}
