(* Preprocessing / inprocessing over the flat clause arena, in the
   SatELite / MiniSAT-SimpSolver tradition.  See the .mli for the
   division of labour: this module owns occurrence lists, signatures,
   subsumption, bounded variable elimination and vivification; every
   clause mutation goes back through the host callbacks so the solver's
   watches, reasons, trail and proof log stay consistent.

   Occurrence lists are variable-indexed (both polarities share a list)
   and rebuilt from scratch each session — arena compaction between
   sessions relocates crefs, so persisting them would buy nothing.
   Removed clauses are only marked dead; occurrence entries and the
   solver's clause vectors are purged lazily ([live] checks) and at
   session end respectively. *)

type stats = {
  mutable subsumed : int;
  mutable self_subsumed : int;
  mutable eliminated_vars : int;
  mutable vivified : int;
  mutable removed_satisfied : int;
  mutable strengthened_lits : int;
  mutable sessions : int;
}

type config = {
  mutable session_growth : int;
  mutable session_min_conflicts : int;
  mutable subsumption_budget : int;
  mutable subsume_occ_limit : int;
  mutable bve_grow : int;
  mutable bve_max_occ : int;
  mutable bve_max_clause : int;
  mutable vivify_budget : int;
  mutable vivify_max_clauses : int;
  mutable inprocess_interval : int;
}

let default_config () =
  {
    session_growth = 5;
    session_min_conflicts = 100;
    subsumption_budget = 2_000_000;
    subsume_occ_limit = 30;
    bve_grow = 0;
    bve_max_occ = 60;
    bve_max_clause = 24;
    vivify_budget = 30_000;
    vivify_max_clauses = 64;
    inprocess_interval = 8;
  }

type host = {
  nvars : int;
  ar : Arena.t;
  clauses : Vec.t;
  learnts : Vec.t;
  value : Lit.t -> int;
  frozen : int -> bool;
  assigned : int -> bool;
  proof : bool;
  solver_ok : unit -> bool;
  trail_size : unit -> int;
  trail_lit : int -> Lit.t;
  remove_clause : int -> unit;
  strengthen_clause : int -> Lit.t -> unit;
  replace_clause : int -> Lit.t array -> unit;
  add_resolvent : Lit.t array -> int;
  eliminate_var : int -> unit;
  detach_clause : int -> unit;
  attach_clause : int -> unit;
  assume : Lit.t -> unit;
  propagate_ok : unit -> bool;
  backtrack : unit -> unit;
  propagation_count : unit -> int;
}

type t = {
  config : config;
  stats : stats;
  mutable occs : Vec.t array;  (* per variable: problem crefs containing it *)
  queue : Vec.t;  (* subsumption work queue of crefs *)
  mutable qhead : int;
  qset : (int, unit) Hashtbl.t;  (* crefs currently queued *)
  (* Signature cache, generation-stamped and keyed directly by cref: the
     subsumption filter probes it once per candidate pair, so it must be
     a flat array read — a hashtable here costs an allocation per probe
     and dominates session time.  [sig_gen.(c) = sig_session] marks a
     valid entry; bumping [sig_session] invalidates the whole cache in
     O(1) at session start (crefs are only reused after an arena GC,
     which never happens mid-session). *)
  mutable sig_val : int array;
  mutable sig_gen : int array;
  mutable sig_session : int;
  touched : Vec.t;  (* BVE candidate variables *)
  mutable touched_mark : Bytes.t;
  mutable lit_mark : int array;  (* per literal, for resolvent merging *)
  mutable mark_gen : int;
  elim : Vec.t;  (* eliminated-clause stack (see extend_model) *)
  mutable budget : int;
  mutable processed_trail : int;
  mutable viv_cursor : int;  (* rotating start into the problem-clause vector *)
}

let create ?(config = default_config ()) () =
  {
    config;
    stats =
      {
        subsumed = 0;
        self_subsumed = 0;
        eliminated_vars = 0;
        vivified = 0;
        removed_satisfied = 0;
        strengthened_lits = 0;
        sessions = 0;
      };
    occs = Array.init 64 (fun _ -> Vec.create ());
    queue = Vec.create ();
    qhead = 0;
    qset = Hashtbl.create 256;
    sig_val = Array.make 1024 0;
    sig_gen = Array.make 1024 0;
    sig_session = 0;
    touched = Vec.create ();
    touched_mark = Bytes.make 64 '\000';
    lit_mark = Array.make 128 0;
    mark_gen = 0;
    elim = Vec.create ();
    budget = 0;
    processed_trail = 0;
    viv_cursor = 0;
  }

let config t = t.config

let stats t = t.stats

let ensure_capacity t nvars =
  if Array.length t.occs < nvars then begin
    let n = max nvars (2 * Array.length t.occs) in
    let fresh = Array.init n (fun _ -> Vec.create ()) in
    Array.blit t.occs 0 fresh 0 (Array.length t.occs);
    t.occs <- fresh
  end;
  if Bytes.length t.touched_mark < nvars then
    t.touched_mark <- Bytes.make (max nvars (2 * Bytes.length t.touched_mark)) '\000';
  if Array.length t.lit_mark < 2 * nvars then
    t.lit_mark <- Array.make (max (2 * nvars) (2 * Array.length t.lit_mark)) 0

let live host c = not (Arena.marked host.ar c)

let touch t v =
  if Bytes.get t.touched_mark v = '\000' then begin
    Bytes.set t.touched_mark v '\001';
    Vec.push t.touched v
  end

let touch_clause t host c =
  let n = Arena.size host.ar c in
  for k = 0 to n - 1 do
    touch t (Lit.var (Arena.lit host.ar c k))
  done

let occ_remove t v c =
  let ws = t.occs.(v) in
  let n = Vec.length ws in
  let i = ref 0 in
  while !i < n && Vec.unsafe_get ws !i <> c do
    incr i
  done;
  if !i < n then begin
    Vec.unsafe_set ws !i (Vec.get ws (n - 1));
    ignore (Vec.pop ws)
  end

let ensure_sig_capacity t len =
  if Array.length t.sig_val < len then begin
    let n = max len (2 * Array.length t.sig_val) in
    let sv = Array.make n 0 and sg = Array.make n 0 in
    Array.blit t.sig_val 0 sv 0 (Array.length t.sig_val);
    Array.blit t.sig_gen 0 sg 0 (Array.length t.sig_gen);
    t.sig_val <- sv;
    t.sig_gen <- sg
  end

let sig_invalidate t c = if c < Array.length t.sig_gen then t.sig_gen.(c) <- 0

let signature t host c =
  if c >= Array.length t.sig_val then ensure_sig_capacity t (c + 1);
  if t.sig_gen.(c) = t.sig_session then t.sig_val.(c)
  else begin
    let s = Arena.signature host.ar c in
    t.sig_val.(c) <- s;
    t.sig_gen.(c) <- t.sig_session;
    s
  end

let enqueue_subsume t c =
  if not (Hashtbl.mem t.qset c) then begin
    Hashtbl.replace t.qset c ();
    Vec.push t.queue c
  end

(* --- Root-value clause cleanup --- *)

(* Remove the clause if some literal is root-true, strip every root-false
   literal otherwise.  [in_occs] says whether the clause is a problem
   clause registered in the occurrence lists (strengthening must then
   unregister the removed literal's variable).  Returns true if the
   clause changed (and survived). *)
let strip_clause t host c ~in_occs =
  let ar = host.ar in
  let sat = ref false in
  let n = Arena.size ar c in
  let k = ref 0 in
  while (not !sat) && !k < n do
    if host.value (Arena.lit ar c !k) = 1 then sat := true;
    incr k
  done;
  if !sat then begin
    if in_occs then touch_clause t host c;
    host.remove_clause c;
    t.stats.removed_satisfied <- t.stats.removed_satisfied + 1;
    false
  end
  else begin
    let changed = ref false in
    let k = ref 0 in
    while live host c && !k < Arena.size ar c do
      let l = Arena.lit ar c !k in
      if host.value l = 0 then begin
        sig_invalidate t c;
        host.strengthen_clause c l;
        t.stats.strengthened_lits <- t.stats.strengthened_lits + 1;
        changed := true;
        if in_occs then occ_remove t (Lit.var l) c;
        touch t (Lit.var l)
        (* do not advance k: the last literal was swapped into place *)
      end
      else incr k
    done;
    !changed && live host c
  end

(* Process root assignments made since the last call (units produced by
   strengthening, resolvent addition or vivification), using the
   occurrence lists to find every problem clause they satisfy or
   shorten. *)
let catch_up t host =
  while host.solver_ok () && t.processed_trail < host.trail_size () do
    let l = host.trail_lit t.processed_trail in
    t.processed_trail <- t.processed_trail + 1;
    let v = Lit.var l in
    let ws = t.occs.(v) in
    (* snapshot: strip_clause mutates this list via occ_remove *)
    let snap = Vec.to_array ws in
    Array.iter
      (fun c ->
        if live host c then
          if strip_clause t host c ~in_occs:true then enqueue_subsume t c)
      snap
  done

(* --- Subsumption & self-subsuming resolution --- *)

(* Does clause [c] subsume [d], possibly after flipping one literal?
   Returns [-1] when [c] is a plain subset of [d]; a literal [l] of [c]
   when [c] matches [d] except that [negate l] appears in [d] (so [d] can
   be strengthened by removing [negate l], the resolvent of [c] and [d]
   on [l]); [-2] otherwise. *)
let subsume_check t host c d =
  (* Mark-based subset test in O(|c| + |d|): stamp [c]'s literals under a
     fresh generation, then scan [d] once counting direct and negated
     hits.  The budget charge (|c| + |d|) matches the actual work, so the
     per-session budget bounds wall time honestly — the naive nested-loop
     check did |c|·|d| comparisons per candidate pair, which let
     identical-signature candidate sets (e.g. model-blocking clauses over
     the same input variables) burn an order of magnitude more time than
     the budget accounted for. *)
  let ar = host.ar in
  let nc = Arena.size ar c and nd = Arena.size ar d in
  t.budget <- t.budget - nc - nd;
  if nc > nd then -2
  else begin
    t.mark_gen <- t.mark_gen + 1;
    let gen = t.mark_gen in
    for k = 0 to nc - 1 do
      t.lit_mark.(Arena.lit ar c k) <- gen
    done;
    let hits = ref 0 and flips = ref 0 and flip = ref (-1) in
    for j = 0 to nd - 1 do
      let ld = Arena.lit ar d j in
      if t.lit_mark.(ld) = gen then incr hits
      else if t.lit_mark.(Lit.negate ld) = gen then begin
        incr flips;
        flip := Lit.negate ld
      end
    done;
    if !hits = nc then -1
    else if !hits = nc - 1 && !flips = 1 then !flip
    else -2
  end

let remove_subsumed t host d =
  touch_clause t host d;
  host.remove_clause d;
  t.stats.subsumed <- t.stats.subsumed + 1

(* Strengthen [d] by removing [negate l] (self-subsuming resolution). *)
let strengthen_by t host d l =
  sig_invalidate t d;
  host.strengthen_clause d (Lit.negate l);
  t.stats.self_subsumed <- t.stats.self_subsumed + 1;
  occ_remove t (Lit.var l) d;
  touch t (Lit.var l);
  catch_up t host;
  if live host d then enqueue_subsume t d

let best_var t host c =
  let ar = host.ar in
  let n = Arena.size ar c in
  let best = ref (Lit.var (Arena.lit ar c 0)) in
  for k = 1 to n - 1 do
    let v = Lit.var (Arena.lit ar c k) in
    if Vec.length t.occs.(v) < Vec.length t.occs.(!best) then best := v
  done;
  !best

(* Forward: find an existing clause subsuming (or strengthening) the
   queued clause [c].  A subsumer's variables are a subset of [c]'s, so
   scanning the occurrence lists of all of [c]'s variables is complete. *)
let forward_step t host c =
  let ar = host.ar in
  let sc = signature t host c in
  let k = ref 0 in
  (* re-read the size: strengthen_by shrinks [c] in place mid-loop *)
  while live host c && !k < Arena.size ar c && t.budget > 0 do
    let v = Lit.var (Arena.lit ar c !k) in
    let ws = t.occs.(v) in
    (* Over-shared variables are skipped (see [subsume_occ_limit]): the
       scan is only a heuristic completeness/cost trade, and a candidate
       missed here is still found when IT is queued and runs backward. *)
    if Vec.length ws <= t.config.subsume_occ_limit then begin
      (* snapshot: strengthenings triggered below mutate this list *)
      let snap = Vec.to_array ws in
      let m = Array.length snap in
      t.budget <- t.budget - m;
      let i = ref 0 in
      while live host c && !i < m do
        let d = snap.(!i) in
        incr i;
        if
          d <> c
          && live host d
          && Arena.size ar d <= Arena.size ar c
          && signature t host d land lnot sc = 0
        then begin
          let r = subsume_check t host d c in
          if r = -1 then remove_subsumed t host c
          else if r >= 0 then strengthen_by t host c r
        end
      done
    end;
    incr k
  done

(* Backward: [c] subsumes or strengthens existing clauses.  Any clause
   [c] subsumes contains every variable of [c], so one occurrence list —
   the shortest — is a complete candidate set. *)
let backward_step t host c =
  let ar = host.ar in
  let sc = signature t host c in
  let b = best_var t host c in
  let ws = t.occs.(b) in
  if Vec.length ws <= t.config.subsume_occ_limit then begin
    (* snapshot: removals and strengthenings mutate the list *)
    let snap = Vec.to_array ws in
    t.budget <- t.budget - Array.length snap;
    let i = ref 0 in
    while live host c && !i < Array.length snap && t.budget > 0 do
      let d = snap.(!i) in
      incr i;
      if
        d <> c
        && live host d
        && Arena.size ar d >= Arena.size ar c
        && sc land lnot (signature t host d) = 0
      then begin
        let r = subsume_check t host c d in
        if r = -1 then remove_subsumed t host d else if r >= 0 then strengthen_by t host d r
      end
    done
  end

let drain_queue t host =
  while host.solver_ok () && t.budget > 0 && t.qhead < Vec.length t.queue do
    let c = Vec.get t.queue t.qhead in
    t.qhead <- t.qhead + 1;
    Hashtbl.remove t.qset c;
    catch_up t host;
    if live host c then begin
      forward_step t host c;
      if live host c then backward_step t host c
    end
  done

(* --- Bounded variable elimination --- *)

(* Eliminated-clause stack frame: the pivot literal first, the rest of
   the clause, then the length — decoded backwards by [extend_model]. *)
let push_elim_frame t host c ~pivot =
  let ar = host.ar in
  let n = Arena.size ar c in
  Vec.push t.elim pivot;
  for k = 0 to n - 1 do
    let l = Arena.lit ar c k in
    if l <> pivot then Vec.push t.elim l
  done;
  Vec.push t.elim n

(* Resolve [p] (containing [pos v]) with [q] (containing [neg v]).
   Returns the resolvent literals, or [None] on a tautology or when the
   merged clause exceeds the length limit. *)
let merge_resolvent t host p q v =
  let ar = host.ar in
  t.mark_gen <- t.mark_gen + 1;
  let gen = t.mark_gen in
  let buf = ref [] in
  let count = ref 0 in
  let np = Arena.size ar p in
  for k = 0 to np - 1 do
    let l = Arena.lit ar p k in
    if Lit.var l <> v then begin
      t.lit_mark.(l) <- gen;
      buf := l :: !buf;
      incr count
    end
  done;
  let taut = ref false in
  let nq = Arena.size ar q in
  let k = ref 0 in
  while (not !taut) && !k < nq do
    let l = Arena.lit ar q !k in
    if Lit.var l <> v then
      if t.lit_mark.(Lit.negate l) = gen then taut := true
      else if t.lit_mark.(l) <> gen then begin
        t.lit_mark.(l) <- gen;
        buf := l :: !buf;
        incr count
      end;
    incr k
  done;
  if !taut || !count > t.config.bve_max_clause then None
  else Some (Array.of_list (List.rev !buf))

let try_eliminate t host v =
  if
    (not (host.frozen v))
    && (not (host.assigned v))
    && t.budget > 0
    && host.solver_ok ()
  then begin
    let ar = host.ar in
    let pos = ref [] and neg = ref [] and npos = ref 0 and nneg = ref 0 in
    let fits = ref true in
    let ws = t.occs.(v) in
    t.budget <- t.budget - Vec.length ws;
    Vec.iter
      (fun c ->
        if !fits && live host c then begin
          if Arena.size ar c > t.config.bve_max_clause then fits := false
          else begin
            let n = Arena.size ar c in
            let polarity = ref (-1) in
            for k = 0 to n - 1 do
              let l = Arena.lit ar c k in
              if Lit.var l = v then polarity := l land 1
            done;
            if !polarity = 0 then begin
              pos := c :: !pos;
              incr npos
            end
            else if !polarity = 1 then begin
              neg := c :: !neg;
              incr nneg
            end
          end
        end)
      ws;
    if !fits && (!npos > 0 || !nneg > 0) && !npos <= t.config.bve_max_occ
       && !nneg <= t.config.bve_max_occ
    then begin
      let pos = List.rev !pos and neg = List.rev !neg in
      (* Count (and build) non-tautological resolvents; abort on growth. *)
      let limit = !npos + !nneg + t.config.bve_grow in
      let resolvents = ref [] in
      let cnt = ref 0 in
      let aborted = ref false in
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if not !aborted then begin
                t.budget <- t.budget - Arena.size ar p - Arena.size ar q;
                match merge_resolvent t host p q v with
                | Some lits ->
                    incr cnt;
                    if !cnt > limit then aborted := true
                    else resolvents := lits :: !resolvents
                | None ->
                    (* over-long resolvents veto the elimination;
                       tautologies just don't count *)
                    if
                      not
                        (let np = Arena.size ar p and nq = Arena.size ar q in
                         np + nq - 2 <= t.config.bve_max_clause)
                    then aborted := true
              end)
            neg)
        pos;
      if not !aborted then begin
        (* Commit: record clauses for model extension, drop them, mark the
           variable, distribute the resolvents. *)
        List.iter (fun c -> push_elim_frame t host c ~pivot:(Lit.pos v)) pos;
        List.iter (fun c -> push_elim_frame t host c ~pivot:(Lit.neg v)) neg;
        host.eliminate_var v;
        t.stats.eliminated_vars <- t.stats.eliminated_vars + 1;
        List.iter
          (fun c ->
            touch_clause t host c;
            host.remove_clause c)
          pos;
        List.iter
          (fun c ->
            touch_clause t host c;
            host.remove_clause c)
          neg;
        let register lits =
          let cref = host.add_resolvent lits in
          if cref >= 0 then begin
            let n = Arena.size ar cref in
            for k = 0 to n - 1 do
              let u = Lit.var (Arena.lit ar cref k) in
              Vec.push t.occs.(u) cref;
              touch t u
            done;
            enqueue_subsume t cref
          end
        in
        List.iter register (List.rev !resolvents);
        catch_up t host
      end
    end
  end

let bve_sweep t host ~all =
  (* Candidate generations: the touched set (or every variable on the
     first session), swept in ascending variable order; eliminations
     touch neighbouring variables, which feed the next generation. *)
  let next = ref [] in
  if all then
    for v = 0 to host.nvars - 1 do
      next := v :: !next
    done
  else begin
    Vec.iter (fun v -> next := v :: !next) t.touched;
    Vec.clear t.touched;
    Bytes.fill t.touched_mark 0 (Bytes.length t.touched_mark) '\000'
  end;
  let next = ref (List.sort_uniq compare (List.rev !next)) in
  let rounds = ref 0 in
  while !next <> [] && t.budget > 0 && host.solver_ok () && !rounds < 8 do
    incr rounds;
    List.iter (fun v -> try_eliminate t host v) !next;
    let fresh = ref [] in
    Vec.iter (fun v -> fresh := v :: !fresh) t.touched;
    Vec.clear t.touched;
    Bytes.fill t.touched_mark 0 (Bytes.length t.touched_mark) '\000';
    next := List.sort_uniq compare !fresh
  done

(* --- Session driver --- *)

let session t host ~new_from =
  t.stats.sessions <- t.stats.sessions + 1;
  ensure_capacity t host.nvars;
  t.sig_session <- t.sig_session + 1;
  Hashtbl.reset t.qset;
  Vec.clear t.queue;
  t.qhead <- 0;
  Vec.clear t.touched;
  Bytes.fill t.touched_mark 0 (Bytes.length t.touched_mark) '\000';
  t.budget <- t.config.subsumption_budget;
  for v = 0 to host.nvars - 1 do
    Vec.clear t.occs.(v)
  done;
  let ar = host.ar in
  Vec.iter
    (fun c ->
      if live host c then begin
        let n = Arena.size ar c in
        for k = 0 to n - 1 do
          Vec.push t.occs.(Lit.var (Arena.lit ar c k)) c
        done
      end)
    host.clauses;
  (* Existing root assignments are handled by the full strip below; only
     assignments made from here on need occurrence-driven catch-up. *)
  t.processed_trail <- host.trail_size ();
  (* Learnt clauses are stripped but never enter the subsumption queue: a
     learnt that subsumed a problem clause would carry load-bearing
     constraints, yet variable elimination purges learnts wholesale —
     problem-clause removal must only ever be justified by other problem
     clauses (MiniSAT SimpSolver keeps learnts out of subsumption for the
     same reason). *)
  let strip_vec vec ~in_occs =
    let n = Vec.length vec in
    let i = ref 0 in
    while host.solver_ok () && !i < n do
      let c = Vec.get vec !i in
      incr i;
      if live host c then
        if strip_clause t host c ~in_occs && in_occs then enqueue_subsume t c
    done
  in
  strip_vec host.clauses ~in_occs:true;
  strip_vec host.learnts ~in_occs:false;
  catch_up t host;
  if host.solver_ok () then begin
    let n = Vec.length host.clauses in
    for i = new_from to n - 1 do
      let c = Vec.get host.clauses i in
      if live host c then enqueue_subsume t c
    done;
    drain_queue t host;
    if not host.proof then begin
      bve_sweep t host ~all:(new_from = 0);
      drain_queue t host
    end
  end

(* --- Vivification --- *)

let vivify t host =
  if host.solver_ok () then begin
    let ar = host.ar in
    let p0 = host.propagation_count () in
    let within_budget () = host.propagation_count () - p0 < t.config.vivify_budget in
    let cand_ok c = live host c && Arena.size ar c >= 3 && Arena.size ar c <= 64 in
    (* High-activity learnt clauses first. *)
    let learnt_cands = Vec.create () in
    Vec.iter (fun c -> if cand_ok c then Vec.push learnt_cands c) host.learnts;
    Vec.sort_in_place
      (fun a b ->
        let d = Float.compare (Arena.act ar b) (Arena.act ar a) in
        if d <> 0 then d else compare a b)
      learnt_cands;
    let cands = Vec.create () in
    let nl = min (Vec.length learnt_cands) t.config.vivify_max_clauses in
    for i = 0 to nl - 1 do
      Vec.push cands (Vec.get learnt_cands i)
    done;
    (* Plus a rotating sample of problem clauses. *)
    let ncl = Vec.length host.clauses in
    if ncl > 0 then begin
      let want = t.config.vivify_max_clauses / 2 in
      let got = ref 0 and scanned = ref 0 in
      while !got < want && !scanned < ncl do
        let c = Vec.get host.clauses (t.viv_cursor mod ncl) in
        t.viv_cursor <- (t.viv_cursor + 1) mod ncl;
        incr scanned;
        if cand_ok c then begin
          Vec.push cands c;
          incr got
        end
      done
    end;
    let keep = Vec.create () in
    let i = ref 0 in
    while !i < Vec.length cands && within_budget () && host.solver_ok () do
      let c = Vec.get cands !i in
      incr i;
      if live host c then begin
        let n = Arena.size ar c in
        (* Skip root-satisfied clauses (in particular reasons of root
           assignments, which must keep their propagated literal). *)
        let root_sat = ref false in
        for k = 0 to n - 1 do
          if host.value (Arena.lit ar c k) = 1 then root_sat := true
        done;
        if not !root_sat then begin
          host.detach_clause c;
          Vec.clear keep;
          let stop = ref false in
          let k = ref 0 in
          while (not !stop) && !k < n do
            let l = Arena.lit ar c !k in
            (match host.value l with
            | 1 ->
                (* true under the assumed prefix: the kept literals plus
                   [l] already form an implied clause *)
                Vec.push keep l;
                stop := true
            | 0 -> () (* false under the prefix: redundant literal *)
            | _ ->
                Vec.push keep l;
                if !k < n - 1 then begin
                  host.assume (Lit.negate l);
                  if not (host.propagate_ok ()) then
                    (* the assumed prefix is contradictory: its negation,
                       the kept literals, is an implied clause *)
                    stop := true
                end);
            incr k
          done;
          host.backtrack ();
          let kn = Vec.length keep in
          if kn < n && host.solver_ok () then begin
            t.stats.vivified <- t.stats.vivified + 1;
            host.replace_clause c (Vec.to_array keep)
          end
          else host.attach_clause c
        end
      end
    done
  end

(* --- Restoring eliminated variables --- *)

let restore t ~var ~unelim ~readd =
  let e = t.elim in
  (* Decode frame boundaries backwards (lengths live at frame ends), then
     work chronologically. *)
  let frames = ref [] in
  let i = ref (Vec.length e - 1) in
  while !i >= 0 do
    let n = Vec.get e !i in
    let base = !i - n in
    frames := (base, n) :: !frames;
    i := base - 1
  done;
  let rec find = function
    | [] -> None
    | (base, _) :: _ when Lit.var (Vec.get e base) = var -> Some base
    | _ :: rest -> find rest
  in
  match find !frames with
  | None -> ()
  | Some start ->
      (* Restore the whole stack suffix: clauses of variables eliminated
         after [var] may mention it.  (The untouched prefix cannot — a
         frame only holds variables that were alive at its push time.)
         Un-eliminate every suffix pivot first so the re-adds see only
         active variables. *)
      let suffix = List.filter (fun (base, _) -> base >= start) !frames in
      List.iter (fun (base, _) -> unelim (Lit.var (Vec.get e base))) suffix;
      List.iter
        (fun (base, n) -> readd (Array.init n (fun k -> Vec.get e (base + k))))
        suffix;
      Vec.shrink e start

(* --- Model extension --- *)

let extend_model t ~value ~set =
  let e = t.elim in
  let i = ref (Vec.length e - 1) in
  while !i >= 0 do
    let n = Vec.get e !i in
    let base = !i - n in
    (* The frame satisfies MiniSAT's extension invariant: if every
       literal except the pivot (stored first) is false, the pivot must
       be made true; otherwise the clause is already satisfied by a
       surviving variable or a later-eliminated one. *)
    let others_false = ref true in
    for j = base + 1 to base + n - 1 do
      let l = Vec.get e j in
      let v = value (Lit.var l) in
      if not (v >= 0 && v lxor (l land 1) = 0) then others_false := false
    done;
    let pivot = Vec.get e base in
    if !others_false then set (Lit.var pivot) (1 lxor (pivot land 1))
    else if value (Lit.var pivot) < 0 then
      (* any value works for this clause; default the pivot literal to
         false so later (earlier-pushed) frames can still flip it *)
      set (Lit.var pivot) (pivot land 1);
    i := base - 1
  done
