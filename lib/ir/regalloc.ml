(* Graph-coloring register allocation onto a fixed physical window.

   Interference is built from {!Liveness}: every def interferes with the
   registers live out of its instruction, defs at the same instruction
   (parallel canonicalization moves) interfere pairwise, and — because
   the moves of one instruction are applied sequentially — defs also
   interfere with that instruction's uses, so no move can clobber a slot
   another move of the same batch still reads.

   Chaitin simplification with optimistic spilling: nodes colored at or
   above {!nregs} are "spills", which here just means window slots past
   the register file — a spilled vreg costs locality, not extra
   instructions, and the count is surfaced as the [ir.spills] gauge. *)

let nregs = 16

type alloc = {
  map : int array;  (** vreg -> window slot *)
  win_size : int;  (** slots the window occupies (zeroed per call) *)
  spills : int;  (** vregs assigned slots >= {!nregs} *)
}

let identity nvregs =
  { map = Array.init nvregs (fun i -> i); win_size = max nvregs 1; spills = 0 }

let allocate (lw : Lower.t) (fi : Lower.func_ir) =
  let n = fi.nvregs in
  if n = 0 then identity n
  else begin
    let lv = Liveness.analyze lw fi in
    let adj = Bytes.make (n * n) '\000' in
    let deg = Array.make n 0 in
    let edge a b =
      if a <> b && Bytes.get adj ((a * n) + b) = '\000' then begin
        Bytes.set adj ((a * n) + b) '\001';
        Bytes.set adj ((b * n) + a) '\001';
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1
      end
    in
    for li = 0 to fi.ir_count - 1 do
      let out = lv.live_out.(li) in
      let ds = lv.defs.(li) in
      List.iter
        (fun d ->
          for v = 0 to n - 1 do
            if Bytes.unsafe_get out v = '\001' then edge d v
          done;
          List.iter (fun d' -> edge d d') ds;
          if List.length ds > 1 then List.iter (fun u -> edge d u) lv.uses.(li))
        ds
    done;
    (* Parameters have no defining instruction in the body — they are
       defined by the caller's argument writes, a virtual instruction at
       function entry. Model exactly that: params interfere pairwise
       (the writes are sequential, so a later dead param must not clobber
       an earlier live one) and with everything live into the body. *)
    let nparams = fi.ff.Vm.Program.nparams in
    if nparams > 0 && fi.ir_count > 0 then begin
      let entry_in = lv.live_in.(0) in
      for p = 0 to nparams - 1 do
        for q = p + 1 to nparams - 1 do
          edge p q
        done;
        for v = 0 to n - 1 do
          if Bytes.unsafe_get entry_in v = '\001' then edge p v
        done
      done
    end;
    (* simplify: push low-degree nodes, spill-candidates optimistically *)
    let removed = Array.make n false in
    let cdeg = Array.copy deg in
    let stack = Array.make n 0 in
    let sp = ref 0 in
    let drop v =
      removed.(v) <- true;
      stack.(!sp) <- v;
      incr sp;
      for w = 0 to n - 1 do
        if (not removed.(w)) && Bytes.get adj ((v * n) + w) = '\001' then
          cdeg.(w) <- cdeg.(w) - 1
      done
    in
    while !sp < n do
      let pick = ref (-1) in
      for v = 0 to n - 1 do
        if (not removed.(v)) && cdeg.(v) < nregs && !pick < 0 then pick := v
      done;
      if !pick < 0 then begin
        (* no trivially colorable node: optimistically push the one with
           the highest live pressure *)
        let best = ref (-1) and bd = ref (-1) in
        for v = 0 to n - 1 do
          if (not removed.(v)) && cdeg.(v) > !bd then begin
            best := v;
            bd := cdeg.(v)
          end
        done;
        pick := !best
      end;
      drop !pick
    done;
    (* color in reverse simplification order *)
    let color = Array.make n (-1) in
    let taken = Array.make (n + 1) false in
    for i = n - 1 downto 0 do
      let v = stack.(i) in
      Array.fill taken 0 (n + 1) false;
      for w = 0 to n - 1 do
        if Bytes.get adj ((v * n) + w) = '\001' && color.(w) >= 0 then
          taken.(color.(w)) <- true
      done;
      let c = ref 0 in
      while taken.(!c) do
        incr c
      done;
      color.(v) <- !c
    done;
    let win = ref 0 and spills = ref 0 in
    Array.iter
      (fun c ->
        if c + 1 > !win then win := c + 1;
        if c >= nregs then incr spills)
      color;
    { map = color; win_size = max !win 1; spills = !spills }
  end
