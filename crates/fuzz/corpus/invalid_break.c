// `break` is rejected: lowered as a skip, it dropped the loop exit
// taken with p = &a, so `x = *p` was reported as a NULL dereference.
int a; int c; int *p; int x;
void main() {
    p = NULL;
    while (1) {
        p = &a;
        if (c) { break; }
        p = NULL;
    }
    x = *p;
}
