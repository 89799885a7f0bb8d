(* A 1-D seismic wavefield kernel with fixed-lag taps — the distance
   engine's showcase workload (not a Table III row).

   The Table III re-implementations carry their dependences through
   scalars, pointers-into-pools and modulo-masked buffers, so the
   classical distance tests (DESIGN.md §7) prove plenty of [No_dep]
   facts but almost no [>= 1] iteration distances on edges that
   actually occur. This kernel is the opposite: its update loops read
   the field at fixed lags (4, 5 and 6 iterations back) with affine
   unit-stride subscripts, so strong SIV proves an exact carried
   distance for every tap — persisted as [distbound] lines —
   and the disjoint-bands pass over [scratch] gives the range test a
   same-array access pair only distance promotion can prune. *)

let source ~scale =
  let n = scale in
  Printf.sprintf
    {|// mini-stencil: 1-D seismic wavefield update with fixed-lag taps.
int wave[8192];
int vel[8192];
int pressure[8192];
int scratch[160];
int checksum;
int seed;

int rnd(int m) {
  seed = (seed * 1103515 + 12345) & 0x7ffffff;
  return seed %% m;
}

// Deterministic survey geometry: velocity model and initial wavefield.
void init_field(int n) {
  for (int i = 0; i < n; i++) {
    wave[i] = rnd(2048) - 1024;
    vel[i] = rnd(255) + 1;
    pressure[i] = 0;
  }
}

// Serial reduction over the final field (kept out of the taps' loops).
int fold_field(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    acc = (acc + wave[i] + pressure[i]) & 0xffffff;
  }
  return acc;
}

int main() {
  seed = 20090214;
  checksum = 0;
  init_field(%d);
  // lag-4 tap: every carried RAW on wave is exactly 4 iterations apart
  for (int i = 4; i < %d; i++) {
    wave[i] = (wave[i - 4] + vel[i]) & 0xffffff;
  }
  // lag-5 tap on vel
  for (int i = 5; i < %d; i++) {
    vel[i] = (vel[i - 5] + wave[i]) & 0xffffff;
  }
  // lag-6 tap on pressure
  for (int i = 6; i < %d; i++) {
    pressure[i] = (pressure[i - 6] + wave[i] - vel[i]) & 0xffffff;
  }
  // disjoint bands of scratch: writes hit [0,64), reads hit [80,144)
  for (int i = 0; i < 64; i++) {
    scratch[i] = wave[i] & 15;
  }
  for (int i = 0; i < 64; i++) {
    checksum = (checksum + scratch[i + 80]) & 0xffffff;
  }
  checksum = (checksum + fold_field(%d)) & 0xffffff;
  int guard = scratch[0] + scratch[80];
  checksum = (checksum + guard) & 0xffffff;
  print(wave[%d - 1]);
  print(vel[%d - 1]);
  print(pressure[%d - 1]);
  print(checksum);
  return 0;
}
|}
    n n n n n n n n

let workload =
  {
    Workload.name = "stencil";
    description = "1-D seismic stencil with provable carried distances 4/5/6";
    source;
    default_scale = 8_192;
    test_scale = 512;
    sites = [];
    prior_work_site = None;
  }
