(* CDCL with two-literal watching, VSIDS + phase saving, 1UIP learning with
   one-step self-subsumption minimization, Luby restarts and learnt-clause
   deletion.  Structure follows MiniSAT 2.2.

   Clause storage is a flat integer arena (MiniSAT/CaDiCaL style, see
   {!Arena}): every clause lives contiguously in one growable [int array]
   and is referred to by its offset (a "cref", a plain [int]).  Watch
   lists are flat [(blocker, cref)] int pairs, so the propagation inner
   loop allocates nothing and walks cache-contiguous memory.  [reduce_db]
   compacts the arena in place — crefs in watches, reasons and the clause
   lists are relocated through a binary-searched offset map — instead of
   leaking tombstones behind watch lists.

   On top of the plain CDCL loop sits an inprocessing engine ({!Simp}):
   each [solve] call starts with a root simplification session
   (subsumption, self-subsuming resolution, bounded variable elimination)
   over clauses added since the previous one, and every few restarts a
   vivification round shrinks high-activity clauses under a propagation
   budget.  Variable elimination obeys a frozen-variable protocol
   ([freeze_var]) so incremental callers can safely re-mention frozen
   variables, and is disabled entirely while DRUP recording is on.

   The search loop runs on plain int and float arrays: [Vec] is int-only,
   the VSIDS heap reads the activity array directly, conflict analysis
   works in solver-owned scratch ([an_learnt], [seen]), clause addition
   dedups through a literal-indexed mark array, and random decisions draw
   an int from an unboxed PRNG state.  A conflict allocates one array, the
   learnt clause itself; propagation and decisions allocate nothing. *)

module Tel = Ll_telemetry.Telemetry

(* Solve-level telemetry.  Per-event counters are flushed as deltas at the
   end of each [solve] rather than bumped in the search inner loop, so the
   hot path carries no telemetry branches beyond the LBD observation. *)
let m_solves = Tel.Metric.counter "sat.solves"

let m_conflicts = Tel.Metric.counter "sat.conflicts"

let m_decisions = Tel.Metric.counter "sat.decisions"

let m_propagations = Tel.Metric.counter "sat.propagations"

let m_restarts = Tel.Metric.counter "sat.restarts"

let m_simp_subsumed = Tel.Metric.counter "sat.simp.subsumed"

let m_simp_self_subsumed = Tel.Metric.counter "sat.simp.self_subsumed"

let m_simp_eliminated = Tel.Metric.counter "sat.simp.eliminated_vars"

let m_simp_vivified = Tel.Metric.counter "sat.simp.vivified"

let m_imported = Tel.Metric.counter "sat.imported_clauses"

let g_arena_words = Tel.Metric.gauge "sat.arena_words"

let h_lbd =
  Tel.Metric.histogram
    ~buckets:[| 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0; 32.0; 48.0; 64.0 |]
    "sat.lbd"

let h_conflicts_per_solve =
  Tel.Metric.histogram
    ~buckets:[| 0.0; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1e3; 3e3; 1e4; 3e4; 1e5 |]
    "sat.conflicts_per_solve"

type result = Sat | Unsat

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_literals : int;
  deleted_clauses : int;
  arena_gcs : int;
  arena_words : int;
  simp_subsumed : int;
  simp_self_subsumed : int;
  simp_eliminated_vars : int;
  simp_vivified : int;
}

exception Conflict_limit

type proof_event = P_add of Lit.t array | P_delete of Lit.t array

let hdr_size_shift = Arena.hdr_size_shift

let no_cref = Arena.no_cref

(* Model-extension state of the last answer.  A [Sat] answer leaves the
   model on the trail and only marks it [Pending]; the eliminated-clause
   stack is replayed into [ext_model] the first time an eliminated
   variable is read ([Extended]).  Any backtrack — hence any later clause
   addition or solve — drops the model ([No_model]). *)
type ext_state = No_model | Pending | Extended

(* VSIDS increments.  An all-float record is stored flat, so updating
   them once per conflict allocates no float box. *)
type incs = { mutable var_inc : float; mutable cla_inc : float }

type t = {
  ar : Arena.t;
  clauses : Vec.t;  (* crefs of problem clauses *)
  learnts : Vec.t;  (* crefs of retained learnt clauses *)
  mutable watches : Vec.t array;
      (* watches.(l): flat (blocker, cref) pairs of clauses watching ¬l *)
  mutable assigns : int array;  (* per var: -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;  (* cref, or [no_cref] when none *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;  (* scratch for analyze *)
  mutable level_stamp : int array;  (* scratch for LBD counting *)
  mutable stamp : int;
  mutable lit_mark : bool array;  (* per literal: scratch for add_clause dedup *)
  an_learnt : Vec.t;  (* scratch: the clause being learnt by analyze *)
  order : Heap.t;
  trail : Vec.t;  (* literals *)
  trail_lim : Vec.t;
  mutable qhead : int;
  inc : incs;
  mutable nvars : int;
  mutable ok : bool;
  prng : Ll_util.Prng.t;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt_literals : int;
  mutable n_deleted : int;
  mutable n_gcs : int;
  mutable proof_enabled : bool;
  mutable proof_log : proof_event list;  (* newest first *)
  (* inprocessing *)
  simp_enabled : bool;
  simp : Simp.t;
  mutable frozen : bool array;
  mutable eliminated : bool array;
  mutable ext_model : int array;  (* extension values for eliminated vars *)
  mutable ext : ext_state;
  mutable n_eliminated : int;
  mutable clause_cursor : int;  (* clauses-vector prefix seen by the last session *)
  mutable last_trail_simp : int;  (* root trail size at the last session *)
  mutable last_conflicts_simp : int;  (* n_conflicts at the last session *)
  mutable last_viv_restart : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let random_decision_freq = 0.02
let restart_first = 100

(* [random_decision_freq] scaled to the 53-bit draw of [Prng.bits53]:
   [float r < freq *. 2^53] holds exactly when [r /. 2^53 < freq], because
   scaling by a power of two is exact. *)
let random_decision_cut = random_decision_freq *. 9007199254740992.0

let create ?(seed = 0) ?(simp = true) () =
  let activity = Array.make 64 0.0 in
  {
    ar = Arena.create ();
    clauses = Vec.create ();
    learnts = Vec.create ();
    watches = Array.init 128 (fun _ -> Vec.create ());
    assigns = Array.make 64 (-1);
    level = Array.make 64 0;
    reason = Array.make 64 no_cref;
    activity;
    polarity = Array.make 64 false;
    seen = Array.make 64 false;
    level_stamp = Array.make 65 0;
    stamp = 0;
    lit_mark = Array.make 128 false;
    an_learnt = Vec.create ();
    order = Heap.create activity;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    inc = { var_inc = 1.0; cla_inc = 1.0 };
    nvars = 0;
    ok = true;
    prng = Ll_util.Prng.create seed;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt_literals = 0;
    n_deleted = 0;
    n_gcs = 0;
    proof_enabled = false;
    proof_log = [];
    simp_enabled = simp;
    simp = Simp.create ();
    frozen = Array.make 64 false;
    eliminated = Array.make 64 false;
    ext_model = Array.make 64 (-1);
    ext = No_model;
    n_eliminated = 0;
    clause_cursor = 0;
    last_trail_simp = 0;
    last_conflicts_simp = 0;
    last_viv_restart = 0;
  }

let num_vars s = s.nvars

let num_clauses s = Vec.length s.clauses

let num_learnts s = Vec.length s.learnts

(* --- Arena shorthands --- *)

let clause_size s c = Arena.size s.ar c

let clause_learnt s c = Arena.learnt s.ar c

let clause_marked s c = Arena.marked s.ar c

let mark_clause s c = Arena.mark s.ar c

let clause_lbd s c = Arena.lbd s.ar c

(* [Arena.act]/[Arena.set_act] spelled out over the arena words (layout in
   arena.mli): a float crossing the module boundary is boxed on every
   call, and every clause bump reads and writes an activity. *)
let[@inline] clause_act s c =
  Int64.float_of_bits (Int64.logand (Int64.of_int s.ar.Arena.a.(c + 1)) Int64.max_int)

let[@inline] set_clause_act s c f = s.ar.Arena.a.(c + 1) <- Int64.to_int (Int64.bits_of_float f)

let clause_lit s c k = Arena.lit s.ar c k

let clause_lits s c = Arena.lits s.ar c

let grow_arrays s needed =
  let old = Array.length s.assigns in
  if needed > old then begin
    let n = max needed (2 * old) in
    let grown (type a) (a : a array) (fill : a) =
      let fresh = Array.make n fill in
      Array.blit a 0 fresh 0 old;
      fresh
    in
    s.assigns <- grown s.assigns (-1);
    s.level <- grown s.level 0;
    s.reason <- grown s.reason no_cref;
    s.activity <- grown s.activity 0.0;
    Heap.set_scores s.order s.activity;
    s.polarity <- grown s.polarity false;
    s.seen <- grown s.seen false;
    s.frozen <- grown s.frozen false;
    s.eliminated <- grown s.eliminated false;
    s.ext_model <- grown s.ext_model (-1);
    (* one extra slot: decision levels range over 0..nvars inclusive *)
    let fresh = Array.make (n + 1) 0 in
    Array.blit s.level_stamp 0 fresh 0 (Array.length s.level_stamp);
    s.level_stamp <- fresh
  end;
  let old_w = Array.length s.watches in
  if 2 * needed > old_w then begin
    let n = max (2 * needed) (2 * old_w) in
    s.watches <- Array.init n (fun i -> if i < old_w then s.watches.(i) else Vec.create ());
    let fresh = Array.make n false in
    Array.blit s.lit_mark 0 fresh 0 (Array.length s.lit_mark);
    s.lit_mark <- fresh
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  grow_arrays s s.nvars;
  Heap.insert s.order v;
  v

(* Value of a literal: -1 unassigned, 0 false, 1 true. *)
let lit_value s l =
  let v = s.assigns.(Lit.var l) in
  if v < 0 then -1 else v lxor (l land 1)

let decision_level s = Vec.length s.trail_lim

let log_proof s event = if s.proof_enabled then s.proof_log <- event :: s.proof_log

let enqueue s l reason =
  s.assigns.(Lit.var l) <- 1 lxor (l land 1);
  s.level.(Lit.var l) <- decision_level s;
  s.reason.(Lit.var l) <- reason;
  Vec.push s.trail l

(* --- Frozen-variable protocol --- *)

let check_var s name v = if v < 0 || v >= s.nvars then invalid_arg name

let freeze_var s v =
  check_var s "Solver.freeze_var: unknown variable" v;
  s.frozen.(v) <- true

let unfreeze_var s v =
  check_var s "Solver.unfreeze_var: unknown variable" v;
  s.frozen.(v) <- false

let is_frozen s v =
  check_var s "Solver.is_frozen: unknown variable" v;
  s.frozen.(v)

let is_eliminated s v =
  check_var s "Solver.is_eliminated: unknown variable" v;
  s.eliminated.(v)

(* --- Activity --- *)

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.inc.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.inc.var_inc <- s.inc.var_inc *. 1e-100
  end;
  Heap.update s.order v

let decay_var_activity s = s.inc.var_inc <- s.inc.var_inc *. var_decay

let bump_clause s c =
  let a = clause_act s c +. s.inc.cla_inc in
  set_clause_act s c a;
  if a > 1e20 then begin
    Vec.iter (fun c -> set_clause_act s c (clause_act s c *. 1e-20)) s.learnts;
    s.inc.cla_inc <- s.inc.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.inc.cla_inc <- s.inc.cla_inc *. clause_decay

(* --- Clause attachment --- *)

let watch s l ~blocker cref =
  let ws = s.watches.(l) in
  Vec.push ws blocker;
  Vec.push ws cref

let attach_clause s c =
  assert (clause_size s c >= 2);
  let l0 = clause_lit s c 0 and l1 = clause_lit s c 1 in
  watch s (Lit.negate l0) ~blocker:l1 c;
  watch s (Lit.negate l1) ~blocker:l0 c

let remove_watch s l c =
  let ws = s.watches.(l) in
  let n = Vec.length ws in
  let i = ref 0 in
  while !i < n && Vec.unsafe_get ws (!i + 1) <> c do
    i := !i + 2
  done;
  if !i < n then begin
    Vec.unsafe_set ws !i (Vec.unsafe_get ws (n - 2));
    Vec.unsafe_set ws (!i + 1) (Vec.unsafe_get ws (n - 1));
    Vec.shrink ws (n - 2)
  end

let detach_clause s c =
  let l0 = clause_lit s c 0 and l1 = clause_lit s c 1 in
  remove_watch s (Lit.negate l0) c;
  remove_watch s (Lit.negate l1) c

let clear_reasons_of s c =
  let n = clause_size s c in
  for k = 0 to n - 1 do
    let v = Lit.var (clause_lit s c k) in
    if s.reason.(v) = c then s.reason.(v) <- no_cref
  done

(* --- Propagation --- *)

(* The hot loop: walks flat (blocker, cref) pairs and clause literals that
   live in the contiguous arena.  No allocation on any path except a watch
   move (a push of two ints, amortized O(1) with no boxing). *)
let propagate s =
  let conflict = ref no_cref in
  while !conflict < 0 && s.qhead < Vec.length s.trail do
    let p = Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    (* p just became true; clauses in watches.(p) watch ¬p, now false. *)
    let ws = s.watches.(p) in
    let n = Vec.length ws in
    let assigns = s.assigns in
    let arena = s.ar.Arena.a in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let blocker = Vec.unsafe_get ws !i in
      let cref = Vec.unsafe_get ws (!i + 1) in
      i := !i + 2;
      (* Blocking-literal fast path: if the cached literal is already
         true the clause is satisfied — keep the watcher, skip the clause
         dereference entirely. *)
      let bv = Array.unsafe_get assigns (blocker lsr 1) in
      if bv >= 0 && bv lxor (blocker land 1) = 1 then begin
        Vec.unsafe_set ws !j blocker;
        Vec.unsafe_set ws (!j + 1) cref;
        j := !j + 2
      end
      else begin
        let base = cref + 2 in
        let false_lit = p lxor 1 in
        if Array.unsafe_get arena base = false_lit then begin
          Array.unsafe_set arena base (Array.unsafe_get arena (base + 1));
          Array.unsafe_set arena (base + 1) false_lit
        end;
        let first = Array.unsafe_get arena base in
        let fv = Array.unsafe_get assigns (first lsr 1) in
        let fval = if fv < 0 then -1 else fv lxor (first land 1) in
        if fval = 1 then begin
          Vec.unsafe_set ws !j first;
          Vec.unsafe_set ws (!j + 1) cref;
          j := !j + 2
        end
        else begin
          let size = Array.unsafe_get arena cref lsr hdr_size_shift in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < size do
            let q = Array.unsafe_get arena (base + !k) in
            let qv = Array.unsafe_get assigns (q lsr 1) in
            if qv < 0 || qv lxor (q land 1) = 1 then begin
              Array.unsafe_set arena (base + 1) q;
              Array.unsafe_set arena (base + !k) false_lit;
              watch s (Lit.negate q) ~blocker:first cref;
              found := true
            end
            else incr k
          done;
          if not !found then begin
            (* Unit or conflicting: keep watching ¬p. *)
            Vec.unsafe_set ws !j first;
            Vec.unsafe_set ws (!j + 1) cref;
            j := !j + 2;
            if fval = 0 then begin
              conflict := cref;
              s.qhead <- Vec.length s.trail;
              while !i < n do
                Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
                incr j;
                incr i
              done
            end
            else enqueue s first cref
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !conflict

(* --- Backtracking --- *)

let cancel_until s target =
  s.ext <- No_model;
  if decision_level s > target then begin
    let bound = Vec.get s.trail_lim target in
    for i = Vec.length s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.polarity.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      s.reason.(v) <- no_cref;
      Heap.insert s.order v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim target;
    s.qhead <- Vec.length s.trail
  end

let new_decision_level s = Vec.push s.trail_lim (Vec.length s.trail)

(* --- Conflict analysis (first UIP) --- *)

(* One-step redundancy: a learnt literal is droppable when every other
   literal of its reason is already in the learnt clause (seen) or fixed at
   level 0. *)
let lit_redundant s l =
  let r = s.reason.(Lit.var l) in
  r >= 0
  &&
  let n = clause_size s r in
  let k = ref 0 in
  while
    !k < n
    &&
    let v = Lit.var (clause_lit s r !k) in
    v = Lit.var l || s.seen.(v) || s.level.(v) = 0
  do
    incr k
  done;
  !k >= n

(* First-UIP analysis into the [an_learnt] scratch vector: on return it
   holds the minimized learnt clause, asserting literal first and a
   literal of the backjump level second.  Returns the backjump level. *)
let analyze s confl =
  let learnt = s.an_learnt in
  Vec.clear learnt;
  Vec.push learnt 0 (* placeholder for the asserting literal *);
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.length s.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    if clause_learnt s !c then bump_clause s !c;
    let n = clause_size s !c in
    for k = 0 to n - 1 do
      let q = clause_lit s !c k in
      (* Skip the literal this reason clause propagated. *)
      if !p >= 0 && Lit.var q = Lit.var !p then ()
      else begin
        let v = Lit.var q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump_var s v;
          if s.level.(v) >= decision_level s then incr counter else Vec.push learnt q
        end
      end
    done;
    (* Next marked literal down the trail. *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do
      decr index
    done;
    let l = Vec.get s.trail !index in
    decr index;
    p := l;
    s.seen.(Lit.var l) <- false;
    decr counter;
    if !counter > 0 then c := s.reason.(Lit.var l) else continue := false
  done;
  Vec.set learnt 0 (Lit.negate !p);
  s.seen.(Lit.var !p) <- true;
  (* Minimize by a stable in-place partition: kept literals keep their
     order in the prefix, dropped ones collect behind it.  Every literal,
     the UIP included, stays [seen] until all redundancy tests are done. *)
  let n = Vec.length learnt in
  let kept = ref 1 in
  for i = 1 to n - 1 do
    let l = Vec.get learnt i in
    if not (lit_redundant s l) then begin
      Vec.set learnt i (Vec.get learnt !kept);
      Vec.set learnt !kept l;
      incr kept
    end
  done;
  for i = 0 to n - 1 do
    s.seen.(Lit.var (Vec.get learnt i)) <- false
  done;
  s.seen.(Lit.var !p) <- false;
  let n = !kept in
  Vec.shrink learnt n;
  if n = 1 then 0
  else begin
    let max_i = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(Lit.var (Vec.get learnt i)) > s.level.(Lit.var (Vec.get learnt !max_i)) then
        max_i := i
    done;
    let tmp = Vec.get learnt 1 in
    Vec.set learnt 1 (Vec.get learnt !max_i);
    Vec.set learnt !max_i tmp;
    s.level.(Lit.var (Vec.get learnt 1))
  end

(* Distinct decision levels among the literals, counted with a stamp array
   instead of a set (no allocation). *)
let lbd_of s lits =
  s.stamp <- s.stamp + 1;
  let stamp = s.stamp in
  let lbd = ref 0 in
  for i = 0 to Array.length lits - 1 do
    let lv = s.level.(Lit.var lits.(i)) in
    if s.level_stamp.(lv) <> stamp then begin
      s.level_stamp.(lv) <- stamp;
      incr lbd
    end
  done;
  !lbd

(* --- Learnt clause database reduction --- *)

let locked s c =
  clause_size s c > 0
  &&
  let l0 = clause_lit s c 0 in
  s.reason.(Lit.var l0) = c && lit_value s l0 = 1

(* In-place arena compaction.  Builds a sorted (old cref -> new cref) map
   while scanning the arena, relocates every cref in watches, reasons and
   the clause lists through binary search, then slides live clause data
   down with overlap-safe blits.  Marked clauses and hole blocks (negative
   words left by in-place strengthening) are dropped. *)
let gc_arena_core s =
  let arena = s.ar.Arena.a in
  let arena_len = s.ar.Arena.len in
  let old_ofs = Vec.create () in
  let new_ofs = Vec.create () in
  let src = ref 0 and dst = ref 0 in
  while !src < arena_len do
    let h = arena.(!src) in
    if h < 0 then src := !src - h
    else begin
      let len = (h lsr hdr_size_shift) + 2 in
      if h land 2 = 0 then begin
        Vec.push old_ofs !src;
        Vec.push new_ofs !dst;
        dst := !dst + len
      end;
      src := !src + len
    end
  done;
  let live_words = !dst in
  let reloc cref =
    let lo = ref 0 and hi = ref (Vec.length old_ofs - 1) in
    let res = ref no_cref in
    while !res < 0 do
      let mid = (!lo + !hi) / 2 in
      let v = Vec.get old_ofs mid in
      if v = cref then res := Vec.get new_ofs mid
      else if v < cref then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  in
  (* Watches: drop watchers of marked clauses, relocate the rest. *)
  Array.iter
    (fun ws ->
      let n = Vec.length ws in
      let j = ref 0 in
      let i = ref 0 in
      while !i < n do
        let blocker = Vec.get ws !i in
        let cref = Vec.get ws (!i + 1) in
        i := !i + 2;
        if not (clause_marked s cref) then begin
          Vec.set ws !j blocker;
          Vec.set ws (!j + 1) (reloc cref);
          j := !j + 2
        end
      done;
      Vec.shrink ws !j)
    s.watches;
  (* Reasons of currently assigned variables ([locked] keeps them alive). *)
  for v = 0 to s.nvars - 1 do
    if s.reason.(v) >= 0 then s.reason.(v) <- reloc s.reason.(v)
  done;
  for i = 0 to Vec.length s.clauses - 1 do
    Vec.set s.clauses i (reloc (Vec.get s.clauses i))
  done;
  for i = 0 to Vec.length s.learnts - 1 do
    Vec.set s.learnts i (reloc (Vec.get s.learnts i))
  done;
  (* Physical compaction, in increasing address order (dst <= src). *)
  let src = ref 0 and dst = ref 0 in
  while !src < arena_len do
    let h = arena.(!src) in
    if h < 0 then src := !src - h
    else begin
      let len = (h lsr hdr_size_shift) + 2 in
      if h land 2 = 0 then begin
        if !dst < !src then Array.blit arena !src arena !dst len;
        dst := !dst + len
      end;
      src := !src + len
    end
  done;
  s.ar.Arena.len <- live_words;
  s.ar.Arena.dead <- 0;
  s.n_gcs <- s.n_gcs + 1

let gc_arena s =
  if Tel.enabled () then begin
    Tel.span_begin ~a0:s.ar.Arena.len "sat.gc_arena";
    gc_arena_core s;
    Tel.span_end ~v:s.ar.Arena.len ()
  end
  else gc_arena_core s

let reduce_db_core s =
  (* Ascending quality; the first half gets deleted.  Concrete comparisons
     (bool, then LBD descending, then activity ascending) — equivalent to
     the former polymorphic compare on a (bool, -lbd, activity) tuple but
     without the polymorphic-compare dispatch in this maintenance path. *)
  let cmp a b =
    let bin_a = clause_size s a <= 2 and bin_b = clause_size s b <= 2 in
    if bin_a <> bin_b then (if bin_a then 1 else -1)
    else
      let la = clause_lbd s a and lb = clause_lbd s b in
      if la <> lb then Stdlib.compare lb la
      else Float.compare (clause_act s a) (clause_act s b)
  in
  Vec.sort_in_place cmp s.learnts;
  let limit = Vec.length s.learnts / 2 in
  let any_deleted = ref false in
  for i = 0 to limit - 1 do
    let c = Vec.get s.learnts i in
    if clause_size s c > 2 && not (locked s c) then begin
      mark_clause s c;
      any_deleted := true;
      s.n_deleted <- s.n_deleted + 1;
      if s.proof_enabled then log_proof s (P_delete (clause_lits s c))
    end
  done;
  if !any_deleted then begin
    Vec.filter_in_place (fun c -> not (clause_marked s c)) s.learnts;
    gc_arena s
  end

let reduce_db s =
  if Tel.enabled () then begin
    Tel.span_begin ~a0:(Vec.length s.learnts) "sat.reduce_db";
    reduce_db_core s;
    Tel.span_end ~v:(Vec.length s.learnts) ()
  end
  else reduce_db_core s

(* --- Adding clauses (root level) --- *)

let set_marks s lits n b =
  for i = 0 to n - 1 do
    s.lit_mark.(lits.(i)) <- b
  done

(* Returns the cref of the attached clause, or [no_cref] when the clause
   was absorbed (tautological, satisfied, unit, or empty).

   A literal over an eliminated variable re-activates it first
   ([restore_var]): the variable's original clauses are replayed from the
   eliminated-clause stack, so the incremental contract — any existing
   variable may appear in later clauses — survives inprocessing.
   Freezing remains worthwhile: it avoids the restore churn entirely. *)
let rec add_clause_core s lits =
  if not s.ok then no_cref
  else begin
    (* Incremental use: callers add clauses right after a Sat answer, while
       the trail still holds the model.  Return to the root first. *)
    cancel_until s 0;
    (* [kept] collects the distinct unassigned literals, each marked in
       [lit_mark] while it is a member.  [restore_var] re-enters this
       function, so the marks are lifted around it. *)
    let n = Array.length lits in
    let kept = Array.make n 0 in
    let k = ref 0 in
    let tautology = ref false in
    let satisfied = ref false in
    for i = 0 to n - 1 do
      let l = lits.(i) in
      let v = Lit.var l in
      if v >= s.nvars then begin
        set_marks s kept !k false;
        invalid_arg "Solver.add_clause: unknown variable"
      end;
      if s.eliminated.(v) then begin
        set_marks s kept !k false;
        restore_var s v;
        set_marks s kept !k true
      end;
      if s.lit_mark.(Lit.negate l) then tautology := true;
      match lit_value s l with
      | 1 -> satisfied := true
      | 0 -> ()
      | _ ->
          if not s.lit_mark.(l) then begin
            s.lit_mark.(l) <- true;
            kept.(!k) <- l;
            incr k
          end
    done;
    set_marks s kept !k false;
    if !tautology || !satisfied then no_cref
    else begin
      let lits = if !k = n then kept else Array.sub kept 0 !k in
      Array.sort Int.compare lits;
      match Array.length lits with
      | 0 ->
          s.ok <- false;
          log_proof s (P_add [||]);
          no_cref
      | 1 ->
          enqueue s lits.(0) no_cref;
          if propagate s >= 0 then begin
            s.ok <- false;
            log_proof s (P_add [||])
          end;
          no_cref
      | _ ->
          let c = Arena.alloc s.ar lits ~learnt:false ~lbd:0 in
          Vec.push s.clauses c;
          attach_clause s c;
          c
    end
  end

and restore_var s v =
  Simp.restore s.simp ~var:v
    ~unelim:(fun u ->
      if s.eliminated.(u) then begin
        s.eliminated.(u) <- false;
        s.n_eliminated <- s.n_eliminated - 1;
        if s.assigns.(u) < 0 then Heap.insert s.order u
      end)
    ~readd:(fun lits -> ignore (add_clause_core s lits))

let add_clause_a s lits = ignore (add_clause_core s lits)

let add_clause s lits = add_clause_a s (Array.of_list lits)

(* Clause import from another solver session (cube-and-conquer clause
   sharing): the arena words for the whole list are reserved up front, so
   the clauses land as one contiguous append with at most one
   backing-array growth.  The count of clauses that actually attached is
   reported back so the importer can account for absorption
   (root-satisfied, tautological or unit clauses leave no arena clause
   behind). *)
let import_clauses s css =
  let words = List.fold_left (fun acc c -> acc + Array.length c + 2) 0 css in
  Arena.reserve s.ar words;
  let attached =
    List.fold_left
      (fun n c -> if add_clause_core s c <> no_cref then n + 1 else n)
      0 css
  in
  Tel.Metric.add m_imported (List.length css);
  attached

(* --- Simplification host operations --- *)

(* Commit a derived root unit: enqueue and propagate, or record the
   refutation if it contradicts the current root assignment. *)
let root_commit_unit s u =
  match lit_value s u with
  | 1 -> ()
  | 0 ->
      s.ok <- false;
      log_proof s (P_add [||])
  | _ ->
      enqueue s u no_cref;
      if propagate s >= 0 then begin
        s.ok <- false;
        log_proof s (P_add [||])
      end

(* Drop a clause at the root: detach, clear any reason pointers into it,
   mark it dead in the arena (the clause vectors are filtered later). *)
let simp_remove_clause s c =
  log_proof s (P_delete (clause_lits s c));
  if clause_size s c >= 2 then detach_clause s c;
  clear_reasons_of s c;
  mark_clause s c

(* Remove literal [l] from clause [c] in place (subsumption strengthening
   or root-false stripping).  The shrunken clause is RUP, so under DRUP it
   is logged as an addition followed by the deletion of the original. *)
let simp_strengthen_clause s c l =
  detach_clause s c;
  let old = clause_lits s c in
  let n = Array.length old in
  let k = ref 0 in
  while clause_lit s c !k <> l do
    incr k
  done;
  Arena.remove_lit_at s.ar c !k;
  log_proof s (P_add (clause_lits s c));
  log_proof s (P_delete old);
  if n - 1 = 1 then begin
    let u = clause_lit s c 0 in
    clear_reasons_of s c;
    mark_clause s c;
    root_commit_unit s u
  end
  else attach_clause s c

(* Rewrite a (currently detached) clause to the literal subset [keep],
   produced by vivification.  Root-true literals mean the clause is now
   redundant; root-false literals are dropped. *)
let simp_replace_clause s c keep =
  let old = clause_lits s c in
  let finish_remove () =
    log_proof s (P_delete old);
    clear_reasons_of s c;
    mark_clause s c
  in
  if Array.exists (fun l -> lit_value s l = 1) keep then finish_remove ()
  else begin
    let kept = Array.of_list (List.filter (fun l -> lit_value s l <> 0) (Array.to_list keep)) in
    match Array.length kept with
    | 0 ->
        log_proof s (P_add [||]);
        s.ok <- false;
        finish_remove ()
    | 1 ->
        log_proof s (P_add kept);
        finish_remove ();
        root_commit_unit s kept.(0)
    | m ->
        for k = 0 to m - 1 do
          Arena.set_lit s.ar c k kept.(k)
        done;
        Arena.set_size s.ar c m;
        log_proof s (P_add (clause_lits s c));
        log_proof s (P_delete old);
        attach_clause s c
  end

(* Learnt clauses mentioning an eliminated variable could still propagate
   it, breaking the elimination invariant (the variable must stay free so
   model extension can choose it).  Purge them at elimination time.

   Once a session's initial strip is done it only marks learnts, never
   adds or rewrites them, so one per-variable index of the live learnts,
   built at the session's first elimination, answers every elimination of
   that session: CSR offsets per variable over crefs in [s.learnts] order.
   Each elimination then visits only the learnts that mention its
   variable, and purges them in the same order as a rescan of
   [s.learnts] would. *)
type learnt_index = { l_off : int array; l_crefs : int array }

let build_learnt_index s =
  let n = s.nvars in
  let off = Array.make (n + 1) 0 in
  Vec.iter
    (fun c ->
      if not (clause_marked s c) then
        for k = 0 to clause_size s c - 1 do
          let v = Lit.var (clause_lit s c k) in
          off.(v + 1) <- off.(v + 1) + 1
        done)
    s.learnts;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let crefs = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  Vec.iter
    (fun c ->
      if not (clause_marked s c) then
        for k = 0 to clause_size s c - 1 do
          let v = Lit.var (clause_lit s c k) in
          crefs.(fill.(v)) <- c;
          fill.(v) <- fill.(v) + 1
        done)
    s.learnts;
  { l_off = off; l_crefs = crefs }

let purge_learnts_of s idx v =
  for i = idx.l_off.(v) to idx.l_off.(v + 1) - 1 do
    let c = idx.l_crefs.(i) in
    if not (clause_marked s c) then begin
      log_proof s (P_delete (clause_lits s c));
      detach_clause s c;
      clear_reasons_of s c;
      mark_clause s c
    end
  done

let simp_eliminate_var s idx v =
  s.eliminated.(v) <- true;
  s.n_eliminated <- s.n_eliminated + 1;
  purge_learnts_of s idx v

(* One host per session (or vivification pass), so the learnt index is
   built at most once per session, at its first elimination. *)
let simp_host s =
  let learnt_index = lazy (build_learnt_index s) in
  {
    Simp.nvars = s.nvars;
    ar = s.ar;
    clauses = s.clauses;
    learnts = s.learnts;
    value = (fun l -> lit_value s l);
    frozen = (fun v -> s.frozen.(v));
    assigned = (fun v -> s.assigns.(v) >= 0);
    proof = s.proof_enabled;
    solver_ok = (fun () -> s.ok);
    trail_size = (fun () -> Vec.length s.trail);
    trail_lit = (fun i -> Vec.get s.trail i);
    remove_clause = (fun c -> simp_remove_clause s c);
    strengthen_clause = (fun c l -> simp_strengthen_clause s c l);
    replace_clause = (fun c keep -> simp_replace_clause s c keep);
    add_resolvent = (fun lits -> add_clause_core s lits);
    eliminate_var = (fun v -> simp_eliminate_var s (Lazy.force learnt_index) v);
    detach_clause = (fun c -> detach_clause s c);
    attach_clause = (fun c -> attach_clause s c);
    assume =
      (fun l ->
        new_decision_level s;
        enqueue s l no_cref);
    propagate_ok = (fun () -> propagate s < 0);
    backtrack = (fun () -> cancel_until s 0);
    propagation_count = (fun () -> s.n_propagations);
  }

(* Filter dead crefs out of the clause vectors after a simplification
   pass, and compact the arena once a quarter of it is waste. *)
let simp_cleanup s =
  Vec.filter_in_place (fun c -> not (clause_marked s c)) s.clauses;
  Vec.filter_in_place (fun c -> not (clause_marked s c)) s.learnts;
  if s.ar.Arena.dead * 4 > s.ar.Arena.len then gc_arena s

(* Root simplification session at the start of a [solve].  A session
   rebuilds the occurrence index and re-strips the whole clause database
   — O(formula) — so it only runs once the problem has grown enough to
   amortise that: always on the first solve, then when new clauses plus
   new root units amount to [session_growth] percent of the database AND
   the solver has actually worked ([session_min_conflicts] conflicts)
   since the previous session.  The conflict gate scales simplification
   effort to search effort: incremental workloads whose solves are
   trivial (e.g. a point-function attack finding one easy DIP per call)
   never pay for passes they cannot amortise, while conflict-heavy
   instances keep inprocessing eagerly. *)
let maybe_simplify s =
  let nc = Vec.length s.clauses in
  let grown =
    nc - s.clause_cursor + (Vec.length s.trail - s.last_trail_simp)
  in
  let cfg = Simp.config s.simp in
  if
    s.simp_enabled && s.ok && grown > 0
    && (s.clause_cursor = 0
       || 100 * grown >= cfg.Simp.session_growth * nc
          && s.n_conflicts - s.last_conflicts_simp >= cfg.Simp.session_min_conflicts)
  then begin
    let run () =
      Simp.session s.simp (simp_host s) ~new_from:s.clause_cursor;
      simp_cleanup s;
      s.clause_cursor <- Vec.length s.clauses;
      s.last_trail_simp <- Vec.length s.trail;
      s.last_conflicts_simp <- s.n_conflicts
    in
    if Tel.enabled () then begin
      Tel.span_begin ~a0:(Vec.length s.clauses) "sat.simp";
      run ();
      Tel.span_end ~v:(Vec.length s.clauses) ()
    end
    else run ()
  end

(* Restart-boundary inprocessing: vivification under a propagation
   budget. *)
let maybe_inprocess s =
  if
    s.simp_enabled && s.ok
    && s.n_restarts - s.last_viv_restart >= (Simp.config s.simp).Simp.inprocess_interval
  then begin
    s.last_viv_restart <- s.n_restarts;
    let run () =
      Simp.vivify s.simp (simp_host s);
      simp_cleanup s
    in
    if Tel.enabled () then begin
      Tel.span_begin ~a0:(Vec.length s.learnts) "sat.simp.vivify";
      run ();
      Tel.span_end ~v:(Vec.length s.learnts) ()
    end
    else run ()
  end

(* --- Luby restart sequence --- *)

let rec luby y x =
  let rec find size seq = if size >= x + 1 then (size, seq) else find ((2 * size) + 1) (seq + 1) in
  let size, seq = find 1 0 in
  if size - 1 = x then y ** float_of_int seq else luby y (x - ((size - 1) / 2))

(* --- Decisions --- *)

(* The next decision variable, or -1 when every variable is assigned. *)
let pick_branch_var s =
  let v =
    if s.nvars > 0 && float_of_int (Ll_util.Prng.bits53 s.prng) < random_decision_cut then begin
      let v = Ll_util.Prng.int s.prng s.nvars in
      if s.assigns.(v) < 0 && not s.eliminated.(v) then v else -1
    end
    else -1
  in
  let v = ref v in
  while !v < 0 && not (Heap.is_empty s.order) do
    let u = Heap.remove_max s.order in
    if s.assigns.(u) < 0 && not s.eliminated.(u) then v := u
  done;
  !v

(* --- Search --- *)

type search_outcome = O_searching | O_sat | O_unsat | O_restart

(* Attach the clause [analyze] left in [an_learnt] (after backjumping) and
   assert its first literal. *)
let record_learnt s =
  let lits = Vec.to_array s.an_learnt in
  let lbd = lbd_of s lits in
  if Tel.enabled () then Tel.Metric.observe h_lbd (float_of_int lbd);
  log_proof s (P_add lits);
  s.n_learnt_literals <- s.n_learnt_literals + Array.length lits;
  match Array.length lits with
  | 1 -> enqueue s lits.(0) no_cref
  | _ ->
      let c = Arena.alloc s.ar lits ~learnt:true ~lbd in
      Vec.push s.learnts c;
      attach_clause s c;
      bump_clause s c;
      enqueue s lits.(0) c

let search s ~assumptions ~conflict_budget ~max_learnts ~conflict_limit =
  let conflicts_here = ref 0 in
  let outcome = ref O_searching in
  while !outcome = O_searching do
    let confl = propagate s in
    if confl >= 0 then begin
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflicts_here;
      if conflict_limit > 0 && s.n_conflicts >= conflict_limit then raise Conflict_limit;
      if decision_level s = 0 then begin
        s.ok <- false;
        log_proof s (P_add [||]);
        outcome := O_unsat
      end
      else begin
        cancel_until s (analyze s confl);
        record_learnt s;
        decay_var_activity s;
        decay_clause_activity s
      end
    end
    else if !conflicts_here >= conflict_budget then begin
      cancel_until s 0;
      outcome := O_restart
    end
    else begin
      if float_of_int (Vec.length s.learnts) >= max_learnts then reduce_db s;
      let level = decision_level s in
      if level < Array.length assumptions then begin
        (* Re-decide pending assumptions before free decisions. *)
        let a = assumptions.(level) in
        match lit_value s a with
        | 1 -> new_decision_level s (* dummy level; already true *)
        | 0 -> outcome := O_unsat (* unsat under assumptions *)
        | _ ->
            new_decision_level s;
            enqueue s a no_cref
      end
      else begin
        let v = pick_branch_var s in
        if v < 0 then outcome := O_sat
        else begin
          s.n_decisions <- s.n_decisions + 1;
          new_decision_level s;
          enqueue s (Lit.make v s.polarity.(v)) no_cref
        end
      end
    end
  done;
  !outcome

let solve_core ~assumptions ~conflict_limit s =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    let assumptions = Array.of_list assumptions in
    (* Assumption variables: re-activate any that were eliminated, and
       freeze them for the duration of this solve so the simplification
       session below cannot eliminate them from under the search
       (MiniSAT SimpSolver's "extra frozen" discipline). *)
    let extra_frozen = ref [] in
    Array.iter
      (fun l ->
        let v = Lit.var l in
        if v >= s.nvars then invalid_arg "Solver.solve: unknown assumption variable";
        if s.eliminated.(v) then restore_var s v;
        if not s.frozen.(v) then begin
          s.frozen.(v) <- true;
          extra_frozen := v :: !extra_frozen
        end)
      assumptions;
    Fun.protect
      ~finally:(fun () -> List.iter (fun v -> s.frozen.(v) <- false) !extra_frozen)
    @@ fun () ->
    maybe_simplify s;
    if not s.ok then Unsat
    else begin
      let max_learnts = ref (max 1000.0 (0.3 *. float_of_int (Vec.length s.clauses))) in
      let rec run attempt =
        let budget = int_of_float (luby 2.0 attempt *. float_of_int restart_first) in
        match
          search s ~assumptions ~conflict_budget:budget ~max_learnts:!max_learnts
            ~conflict_limit
        with
        | O_sat -> Sat
        | O_searching -> assert false
        | O_unsat ->
            cancel_until s 0;
            Unsat
        | O_restart ->
            s.n_restarts <- s.n_restarts + 1;
            Tel.instant ~a0:s.n_restarts "sat.restart";
            maybe_inprocess s;
            if not s.ok then Unsat
            else begin
              max_learnts := !max_learnts *. 1.05;
              run (attempt + 1)
            end
      in
      let result = run 0 in
      (* On Sat the trail is kept as the model until the next mutation;
         its extension over eliminated variables waits for [value]. *)
      if result = Sat then s.ext <- Pending;
      result
    end
  end

let solve ?(assumptions = []) ?(conflict_limit = 0) s =
  if Tel.enabled () then begin
    let c0 = s.n_conflicts
    and d0 = s.n_decisions
    and p0 = s.n_propagations
    and r0 = s.n_restarts in
    let st = Simp.stats s.simp in
    let sub0 = st.Simp.subsumed
    and ssub0 = st.Simp.self_subsumed
    and el0 = st.Simp.eliminated_vars
    and viv0 = st.Simp.vivified in
    Tel.span_begin ~a0:(Vec.length s.clauses) ~a1:s.nvars "sat.solve";
    let flush () =
      Tel.Metric.incr m_solves;
      Tel.Metric.add m_conflicts (s.n_conflicts - c0);
      Tel.Metric.add m_decisions (s.n_decisions - d0);
      Tel.Metric.add m_propagations (s.n_propagations - p0);
      Tel.Metric.add m_restarts (s.n_restarts - r0);
      Tel.Metric.add m_simp_subsumed (st.Simp.subsumed - sub0);
      Tel.Metric.add m_simp_self_subsumed (st.Simp.self_subsumed - ssub0);
      Tel.Metric.add m_simp_eliminated (st.Simp.eliminated_vars - el0);
      Tel.Metric.add m_simp_vivified (st.Simp.vivified - viv0);
      Tel.Metric.observe h_conflicts_per_solve (float_of_int (s.n_conflicts - c0));
      Tel.Metric.set g_arena_words (float_of_int s.ar.Arena.len)
    in
    match solve_core ~assumptions ~conflict_limit s with
    | result ->
        flush ();
        Tel.span_end ~v:(match result with Sat -> 1 | Unsat -> 0) ();
        result
    | exception e ->
        flush ();
        Tel.span_end ~v:(-1) ~note:"exception" ();
        raise e
  end
  else solve_core ~assumptions ~conflict_limit s

(* Complete the pending Sat model over eliminated variables by replaying
   the eliminated-clause stack once (values land in [ext_model]). *)
let extend_model s =
  Array.fill s.ext_model 0 (Array.length s.ext_model) (-1);
  Simp.extend_model s.simp
    ~value:(fun v -> if s.assigns.(v) >= 0 then s.assigns.(v) else s.ext_model.(v))
    ~set:(fun v b -> s.ext_model.(v) <- b);
  s.ext <- Extended

let value s l =
  match lit_value s l with
  | 1 -> true
  | 0 -> false
  | _ ->
      let v = Lit.var l in
      let elim = v < s.nvars && s.eliminated.(v) in
      if elim && s.ext = Pending then extend_model s;
      if elim && s.ext = Extended && s.ext_model.(v) >= 0 then
        s.ext_model.(v) lxor (l land 1) = 1
      else invalid_arg "Solver.value: literal unassigned in model"

let model_var s v = value s (Lit.pos v)

let ok s = s.ok

let stats s =
  let st = Simp.stats s.simp in
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    restarts = s.n_restarts;
    learnt_literals = s.n_learnt_literals;
    deleted_clauses = s.n_deleted;
    arena_gcs = s.n_gcs;
    arena_words = s.ar.Arena.len;
    simp_subsumed = st.Simp.subsumed;
    simp_self_subsumed = st.Simp.self_subsumed;
    simp_eliminated_vars = st.Simp.eliminated_vars;
    simp_vivified = st.Simp.vivified;
  }

let enable_proof s =
  if s.n_eliminated > 0 then
    invalid_arg "Solver.enable_proof: variables were already eliminated; enable before solving";
  s.proof_enabled <- true

let proof s = List.rev s.proof_log
