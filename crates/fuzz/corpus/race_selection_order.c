int ar0[8];
int *ap0[4];
void f0() {
  *ap0[c1] = g0_0;
  *t0_1 = c1;
  lock(&mx1); *t0_1 = ar0[c1]; unlock(&mx1);
  if (c0) { ap0[c0] = &s0; } else { g1_1 = &c1; }
  spawn f0();
  if (c0) { ap0[c1] = NULL; } else { g1_1 = t0_1; }
}
void f1() {
  c0 = *ap0[c1];
  ap0[c0] = &ar0[c1];
  if (c1) { *t1_1 = c1; } else { ap0[c1] = malloc(); }
  lock(&mx1); ap0[c0] = g1_1; unlock(&mx1);
  while (c0) { c0 = c0 - 1; t1_1 = g1_0; }
}
void main() {
  ap0[c0] = g1_0;
  free(ap0[c1]);
  f0();
  f1();
  lock(&mx1); free(g1_0); unlock(&mx1);
  g0_0 = *ap0[c1];
  lock(&mx0); ap0[c1] = &g0_0; unlock(&mx0);
  f1();
}
