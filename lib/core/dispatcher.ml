module Trace = Spin_machine.Trace

type costs = {
  dispatch_fixed : int;
  guard_eval : int;
  handler_invoke : int;
  trusted_eval : int;
  trusted_invoke : int;
}

(* Section 5.5: 50 false guards add ~20 us to an Ethernet RTT (one
   dispatch per receiving host: ~0.4 us/guard); 50 invoked handlers add
   ~72 us (~1.44 us each beyond the guard). The trusted costs model a
   handler whose predicate was verified at install time and compiled:
   no guard-stack interpretation (a short straight-line compare), no
   overrun stamping around the invocation — the Rex/bpftime observation
   that moving verification offline leaves only the work itself. *)
let default_costs = {
  dispatch_fixed = 25;
  guard_eval = 53;
  handler_invoke = 138;
  trusted_eval = 12;
  trusted_invoke = 40;
}

type failure_policy =
  | Uninstall
  | Restart of { delay_us : float; backoff : float; max_restarts : int }
  | Quarantine of { window_us : float; max_faults : int }

type fault_kind =
  | Handler_exception of exn
  | Handler_overrun of { bound : int; spent : int }

type fault = {
  fault_event : string;
  fault_owner : string;
  fault_installer : string;
  fault_policy : failure_policy;
  fault_kind : fault_kind;
  fault_handler_id : int;
  fault_removed : bool;
  fault_reinstall : unit -> unit;
}

(* The one install surface: everything a handler can ask for, in a
   record, so facades stop re-plumbing optional arguments and the
   restart/hot-swap machinery reads policies from one place. *)
module Handler_spec = struct
  type 'a t = {
    guard : ('a -> bool) option;
    bound_cycles : int option;
    async : bool;
    index_key : int option;
    on_failure : failure_policy;
    verified : Ebc.program option;
    caps : Ebc.cap_slot array;
  }

  let default =
    { guard = None; bound_cycles = None; async = false; index_key = None;
      on_failure = Uninstall; verified = None; caps = [||] }

  let guarded g = { default with guard = Some g }
  let bounded b = { default with bound_cycles = Some b }
  let indexed key = { default with index_key = Some key }
  let verified ?(caps = [||]) prog =
    { default with verified = Some prog; caps }

  (* Type-erased per-handler view, exported through the registry so
     supervisors and swaps can enumerate what is installed without
     knowing event types. *)
  type info = {
    i_event : string;
    i_installer : string;
    i_handler_id : int;
    i_policy : failure_policy;
    i_indexed : bool;
    i_trusted : bool;
    i_async : bool;
    i_bound : int option;
    i_guards : int;
    i_active : bool;
  }
end

type t = {
  clock : Spin_machine.Clock.t;
  costs : costs;
  tracer : Trace.t;
  mutable spawn : ((unit -> unit) -> unit) option;
  deferred : (unit -> unit) Queue.t;
  mutable registry : registration list;   (* reverse declaration order *)
  mutable on_fault : (fault -> unit) option;
  mutable on_violation : (string -> unit) option;
  (* Provided by the scheduler layer: hold the calling strand while a
     gated event's handlers are being hot-swapped. Returns true after
     a wait (re-check the gate), false to pass through (the caller is
     exempt — e.g. the swap itself). *)
  mutable gate_wait : (unit -> bool) option;
  mutable next_handler_id : int;
  mutable s_verifier_rejections : int;
}

and registration = {
  reg_name : string;
  reg_owner : string;
  reg_installers : unit -> string list;
  reg_remove : string -> int;
  reg_audit : (string -> unit) -> unit;
  reg_set_gate : bool -> unit;
  reg_in_flight : unit -> int;
  reg_specs : unit -> Handler_spec.info list;
  reg_trusted : unit -> int;
}

type ('a, 'r) handler = {
  h_id : int;
  installer : string;
  fn : 'a -> 'r;
  mutable guards : ('a -> bool) list;
  mutable bound : int option;
  async : bool;
  policy : failure_policy;
  h_indexed : bool;                      (* lives in an index bucket *)
  (* The trusted-fast predicate: present iff the handler's bytecode
     passed the install-time verifier and no runtime check (closure
     guard, cycle bound) was requested alongside it. Dispatch runs it
     with zero per-event safety checks. *)
  mutable trusted : ('a -> bool) option;
  mutable active : bool;
  mutable revive : unit -> unit;
  (* Recomputes the owning event's dispatch plan; set at install so
     [add_guard], which sees only the handler, can keep it current. *)
  mutable replan : unit -> unit;
}

type stats = {
  raises : int;
  fast_path : int;
  invocations : int;
  guard_rejections : int;
  aborted : int;
  handler_failures : int;
  stale_skips : int;
  gated_waits : int;
  trusted_fast : int;
}

type 'a decision =
  | Deny
  | Allow of {
      guard : ('a -> bool) option;
      bound_cycles : int option;
      force_async : bool;
    }

let allow = Allow { guard = None; bound_cycles = None; force_async = false }

(* The dispatch decision, made whenever the handler set changes rather
   than on every raise. A sole verified handler with nothing indexed
   is a compiled predicate and a trusted call; a sole unguarded,
   unbounded synchronous handler is a protected procedure call (the
   paper's "collapses to a direct procedure call"); anything else
   walks the general path over an immutable snapshot of the linear
   handlers. *)
type ('a, 'r) plan =
  | Trusted_sole of ('a, 'r) handler * ('a -> bool)
  | Fast_sole of ('a, 'r) handler
  | General of ('a, 'r) handler array

type ('a, 'r) event = {
  e_name : string;
  e_owner : string;
  e_ty : Ty.t option;
  e_layout : 'a Ebc.layout option;
  disp : t;
  combine : 'r list -> 'r;
  auth : installer:string -> 'a decision;
  index : ('a -> int) option;
  indexed : (int, ('a, 'r) handler list ref) Hashtbl.t;
  allow_remove : requester:string -> bool;
  default_handler : ('a, 'r) handler;
  mutable primary_active : bool;
  mutable extra : ('a, 'r) handler list;  (* installation order *)
  (* Current dispatch plan. Every site that changes an input of
     [compute_plan] calls [replan]; the audit recomputes and compares.
     A raise reads the plan once, so a mutation mid-dispatch installs
     a fresh plan without disturbing the iteration in progress. *)
  mutable plan : ('a, 'r) plan;
  (* The last one-element result list handed to [combine]; reused
     while a sole handler keeps returning the same value (every unit
     event does), so a sole-handler raise allocates nothing. *)
  mutable single : 'r list;
  (* Active handlers across all index buckets. Buckets deliberately
     retain inactive handlers (dispatch filters on [active], reviving
     is a flag flip), so [Hashtbl.length indexed] counts buckets ever
     used, not live handlers — the dispatch plan must not use it. *)
  mutable n_indexed_active : int;
  (* Dispatches currently iterating this event's handler list; the
     invariant audit requires 0 at quiescence. *)
  mutable in_flight : int;
  (* Swap window: while gated, raises hold at the top of the dispatch
     (via the scheduler's [gate_wait]) until the replacement handlers
     are installed, then drain against the new domain. *)
  mutable gated : bool;
  mutable s_gated_waits : int;
  mutable s_raises : int;
  mutable s_fast : int;
  mutable s_invocations : int;
  mutable s_guard_rejections : int;
  mutable s_aborted : int;
  mutable s_failed : int;
  mutable s_stale_skips : int;
  mutable s_trusted : int;
}

exception No_handler of string

let create ?(costs = default_costs) clock =
  { clock; costs; tracer = Trace.of_clock clock; spawn = None;
    deferred = Queue.create (); registry = [];
    on_fault = None; on_violation = None; gate_wait = None;
    next_handler_id = 0; s_verifier_rejections = 0 }

let tracer t = t.tracer

let set_async_spawn t f = t.spawn <- Some f

let set_fault_handler t f = t.on_fault <- Some f

let set_violation_hook t f = t.on_violation <- f

let report_violation t msg =
  match t.on_violation with Some f -> f msg | None -> ()

let fresh_handler_id t =
  let id = t.next_handler_id in
  t.next_handler_id <- id + 1;
  id

let flush_deferred t =
  let n = Queue.length t.deferred in
  while not (Queue.is_empty t.deferred) do (Queue.pop t.deferred) () done;
  n

let rec last_result name = function
  | [ r ] -> r
  | _ :: rest -> last_result name rest
  | [] -> raise (No_handler name)

(* Every site that retires a handler funnels through here so the
   active-indexed count stays exact: the dispatch plan depends on it
   (one stale increment would disable the fast path forever, one stale
   decrement would skip live indexed handlers). Callers replan once
   they have also unlinked the handler. *)
let deactivate e h =
  if h.active then begin
    h.active <- false;
    if h.h_indexed then e.n_indexed_active <- e.n_indexed_active - 1
  end

let active_handlers e =
  if e.primary_active then e.default_handler :: e.extra else e.extra

let compute_plan e =
  match active_handlers e with
  | [ { trusted = Some pred; async = false; _ } as h ]
    when e.n_indexed_active = 0 ->
    Trusted_sole (h, pred)
  | [ { trusted = None; guards = []; bound = None; async = false; _ } as h ]
    when e.n_indexed_active = 0 ->
    Fast_sole h
  | linear -> General (Array.of_list linear)

let replan e = e.plan <- compute_plan e

let same_plan a b =
  match a, b with
  | Trusted_sole (h, p), Trusted_sole (h', p') -> h == h' && p == p'
  | Fast_sole h, Fast_sole h' -> h == h'
  | General hs, General hs' ->
    Array.length hs = Array.length hs' && Array.for_all2 ( == ) hs hs'
  | (Trusted_sole _ | Fast_sole _ | General _), _ -> false

let declare t ~name ~owner ?ty ?layout ?combine ?auth ?index
    ?allow_remove_primary default =
  let combine = match combine with Some f -> f | None -> last_result name in
  let auth = match auth with Some f -> f | None -> fun ~installer:_ -> allow in
  let allow_remove =
    match allow_remove_primary with
    | Some f -> f
    | None -> fun ~requester:_ -> false in
  let default_handler =
    { h_id = fresh_handler_id t; installer = owner; fn = default; guards = [];
      bound = None; async = false; policy = Uninstall; h_indexed = false;
      trusted = None; active = true; revive = ignore; replan = ignore } in
  let e =
    { e_name = name; e_owner = owner; e_ty = ty; e_layout = layout;
      disp = t; combine; auth;
      index; indexed = Hashtbl.create 8;
      allow_remove; default_handler; primary_active = true; extra = [];
      plan = Fast_sole default_handler; single = [];
      n_indexed_active = 0; in_flight = 0;
      gated = false; s_gated_waits = 0;
      s_raises = 0; s_fast = 0; s_invocations = 0;
      s_guard_rejections = 0; s_aborted = 0; s_failed = 0;
      s_stale_skips = 0; s_trusted = 0 } in
  (* Every per-handler enumeration below reads from this one view, so
     hot-swap gating, supervisor sweeps, and audits agree on what is
     installed (linear and indexed alike). *)
  let spec_info h =
    { Handler_spec.i_event = name; i_installer = h.installer;
      i_handler_id = h.h_id; i_policy = h.policy; i_indexed = h.h_indexed;
      i_trusted = h.trusted <> None; i_async = h.async; i_bound = h.bound;
      i_guards = List.length h.guards; i_active = h.active } in
  let reg_specs () =
    List.map spec_info e.extra
    @ Hashtbl.fold (fun _ b acc -> List.map spec_info !b @ acc) e.indexed [] in
  let reg_installers () =
    let primary = if e.primary_active then [ owner ] else [] in
    primary
    @ List.filter_map
        (fun (i : Handler_spec.info) ->
          if i.Handler_spec.i_active then Some i.Handler_spec.i_installer
          else None)
        (reg_specs ()) in
  (* Per-installer eviction, type-erased: the supervisor quarantines a
     whole domain by sweeping every event through the registry. *)
  let reg_remove installer =
    let removed = ref 0 in
    List.iter
      (fun h ->
        if h.active && String.equal h.installer installer then begin
          deactivate e h; incr removed
        end)
      e.extra;
    e.extra <- List.filter (fun h -> h.active) e.extra;
    Hashtbl.iter
      (fun _ b ->
        List.iter
          (fun h ->
            if h.active && String.equal h.installer installer then begin
              deactivate e h; incr removed
            end)
          !b)
      e.indexed;
    replan e;
    !removed in
  (* Structural-coherence audit, type-erased so the checkers can sweep
     every event: stale inactive handlers in the linear list, a drifted
     active-indexed count (the dispatch plan feeds on it), or a
     dispatch recorded as still in flight all indicate handler-list
     mutation went around the safe paths. *)
  let reg_audit report =
    List.iter
      (fun h ->
        if not h.active then
          report
            (Printf.sprintf
               "%s: inactive handler from %s lingers in the handler list"
               name h.installer))
      e.extra;
    let live =
      Hashtbl.fold
        (fun _ b acc ->
          acc + List.length (List.filter (fun h -> h.active) !b))
        e.indexed 0 in
    if live <> e.n_indexed_active then
      report
        (Printf.sprintf "%s: indexed-active count %d disagrees with recount %d"
           name e.n_indexed_active live);
    if e.in_flight <> 0 then
      report
        (Printf.sprintf "%s: %d raise(s) still marked in flight at audit"
           name e.in_flight);
    (* A mutation that skipped [replan] leaves raises dispatching on a
       stale decision. *)
    if not (same_plan e.plan (compute_plan e)) then
      report
        (Printf.sprintf "%s: cached dispatch plan disagrees with a recompute"
           name);
    (* A trusted handler's whole point is zero per-event checks: if one
       carries a guard stack or a runtime bound, some path installed or
       mutated it around the demotion logic. *)
    List.iter
      (fun (i : Handler_spec.info) ->
        if i.Handler_spec.i_trusted
           && (i.Handler_spec.i_guards > 0 || i.Handler_spec.i_bound <> None)
        then
          report
            (Printf.sprintf
               "%s: trusted handler from %s carries runtime checks"
               name i.Handler_spec.i_installer))
      (reg_specs ()) in
  t.registry <-
    { reg_name = name; reg_owner = owner; reg_installers; reg_remove;
      reg_audit; reg_set_gate = (fun v -> e.gated <- v);
      reg_in_flight = (fun () -> e.in_flight);
      reg_specs; reg_trusted = (fun () -> e.s_trusted) }
    :: t.registry;
  e

let event_name e = e.e_name

let event_owner e = e.e_owner

type install_error =
  | Denied
  | No_index
  | Rejected of Ebc.error

let install_error_to_string = function
  | Denied -> "denied by the primary module"
  | No_index -> "event has no index"
  | Rejected e -> "verifier rejected: " ^ Ebc.error_to_string e

(* The one install path. Bytecode in the spec is verified here —
   against the event's published layout and the spec's capability
   slots — before anything is linked in; a rejection installs nothing.
   A program that verifies becomes the handler's trusted predicate iff
   it is the entire runtime check surface (no closure guard from the
   installer or the authorizer, no runtime cycle bound: a verified
   program's bound is discharged at install time through its step
   budget). Otherwise the compiled program is demoted to an ordinary
   guard — same semantics, guarded-path cost. *)
let install e ~installer ?(spec = Handler_spec.default) fn =
  let s : _ Handler_spec.t = spec in
  if s.Handler_spec.index_key <> None && e.index = None then Error No_index
  else
    match e.auth ~installer with
    | Deny -> Error Denied
    | Allow { guard = auth_guard; bound_cycles = auth_bound; force_async } ->
      let verified =
        match s.Handler_spec.verified with
        | None -> Ok None
        | Some prog ->
          (match e.e_layout with
           | None -> Error (Ebc.No_layout e.e_name)
           | Some lay ->
             let budget =
               match s.Handler_spec.bound_cycles with
               | Some b -> max 1 (b / Ebc.step_cycles)
               | None -> Ebc.default_budget in
             (match Ebc.verify ~layout:lay ~caps:s.Handler_spec.caps ~budget
                      prog with
              | Ok _cert ->
                (* The install-time price of zero per-event checks. *)
                Spin_machine.Clock.charge e.disp.clock (Ebc.verify_cycles prog);
                Ok (Some (Ebc.compile ~layout:lay ~caps:s.Handler_spec.caps prog))
              | Error err -> Error err)) in
      (match verified with
       | Error err ->
         e.disp.s_verifier_rejections <- e.disp.s_verifier_rejections + 1;
         if Trace.on e.disp.tracer then
           Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"verifier_reject"
             ~args:[ ("event", e.e_name); ("installer", installer);
                     ("error", Ebc.error_to_string err) ] ();
         Error (Rejected err)
       | Ok compiled ->
         let trusted, demoted =
           match compiled with
           | Some pred
             when s.Handler_spec.guard = None && auth_guard = None
                  && auth_bound = None ->
             (Some pred, [])
           | Some pred -> (None, [ pred ])
           | None -> (None, []) in
         let guards =
           Option.to_list auth_guard @ demoted
           @ Option.to_list s.Handler_spec.guard in
         let bound =
           if trusted <> None then None
           else
             match auth_bound, s.Handler_spec.bound_cycles with
             | None, b | b, None -> b
             | Some a, Some b -> Some (min a b) in
         let h =
           { h_id = fresh_handler_id e.disp; installer; fn; guards; bound;
             async = s.Handler_spec.async || force_async;
             policy = s.Handler_spec.on_failure;
             h_indexed = s.Handler_spec.index_key <> None;
             trusted; active = true; revive = ignore;
             replan = (fun () -> replan e) } in
         (match s.Handler_spec.index_key with
          | Some key ->
            (* The bucket keeps inactive handlers (dispatch filters on
               [active]), so reviving is just a flag flip. *)
            h.revive <- (fun () ->
              if not h.active then begin
                h.active <- true;
                e.n_indexed_active <- e.n_indexed_active + 1;
                replan e
              end);
            let bucket =
              match Hashtbl.find_opt e.indexed key with
              | Some b -> b
              | None -> let b = ref [] in Hashtbl.replace e.indexed key b; b in
            bucket := !bucket @ [ h ];
            e.n_indexed_active <- e.n_indexed_active + 1
          | None ->
            h.revive <- (fun () ->
              if not h.active then begin
                h.active <- true;
                e.extra <- e.extra @ [ h ];
                replan e
              end);
            e.extra <- e.extra @ [ h ]);
         replan e;
         Ok h)

let ok_exn = function
  | Ok h -> h
  | Error err ->
    invalid_arg ("Dispatcher.install: " ^ install_error_to_string err)

(* Stacking a closure guard on a trusted handler forfeits the trusted
   path: the compiled predicate demotes to the front of the guard
   stack and dispatch reverts to the guarded (policed) path. *)
let add_guard h g =
  (match h.trusted with
   | Some pred ->
     h.trusted <- None;
     h.guards <- h.guards @ [ pred ]
   | None -> ());
  h.guards <- h.guards @ [ g ];
  h.replan ()

let uninstall e h =
  deactivate e h;
  e.extra <- List.filter (fun x -> x != h) e.extra;
  replan e

let remove_primary e ~requester =
  if e.allow_remove ~requester then begin
    e.primary_active <- false;
    replan e;
    Ok ()
  end else Error `Denied

let reinstate_primary e =
  e.primary_active <- true;
  replan e

let rec guards_pass e h arg = function
  | [] -> true
  | g :: rest ->
    Spin_machine.Clock.charge e.disp.clock e.disp.costs.guard_eval;
    if g arg then guards_pass e h arg rest
    else begin
      e.s_guard_rejections <- e.s_guard_rejections + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"guard_reject"
          ~args:[ ("event", e.e_name); ("installer", h.installer) ] ();
      false
    end

(* The thunk runs after the raise returns — on a freshly spawned strand
   or at the next [flush_deferred] — so the handler can be uninstalled
   (or its whole domain quarantined) in between. Re-check [active] at
   run time: dispatching to a dead handler would resurrect exactly the
   extension the supervisor evicted. *)
let run_async e h arg =
  let thunk () =
    if h.active then ignore (h.fn arg)
    else e.s_stale_skips <- e.s_stale_skips + 1 in
  match e.disp.spawn with
  | Some spawn -> spawn thunk
  | None -> Queue.add thunk e.disp.deferred

let report_fault e h kind ~removed =
  match e.disp.on_fault with
  | None -> ()
  | Some f ->
    f { fault_event = e.e_name; fault_owner = e.e_owner;
        fault_installer = h.installer; fault_policy = h.policy;
        fault_kind = kind; fault_handler_id = h.h_id;
        fault_removed = removed; fault_reinstall = h.revive }

(* Raised (without a backtrace) by [invoke] when a handler's result is
   discarded: it faulted, or it overran its bound. Never escapes
   [raise_event]. *)
exception Discarded

(* A failing extension handler is isolated: the exception is caught,
   counted, and reported — "the failure of an extension is no more
   catastrophic than the failure of code executing in the runtime
   libraries" (paper, section 4.3). With no supervisor attached the
   faulting handler is uninstalled on the spot; with one attached, the
   handler's [on_failure] policy decides whether it stays installed
   (Quarantine counts faults against the domain's budget), comes back
   after a delay (Restart), or goes away (Uninstall). The primary
   implementation is trusted: its exceptions propagate to the raiser,
   as a direct procedure call's would. *)
let call e h arg =
  if h == e.default_handler then h.fn arg
  else
    match h.fn arg with
    | r -> r
    | exception exn ->
      e.s_failed <- e.s_failed + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"fault"
          ~args:[ ("event", e.e_name); ("installer", h.installer);
                  ("exn", Printexc.to_string exn) ] ();
      let keep_installed =
        e.disp.on_fault <> None
        && (match h.policy with Quarantine _ -> true | _ -> false) in
      if not keep_installed then begin
        deactivate e h;
        e.extra <- List.filter (fun x -> x != h) e.extra;
        replan e
      end;
      report_fault e h (Handler_exception exn) ~removed:(not keep_installed);
      raise_notrace Discarded

(* One synchronous invocation: the handler's result, or [Discarded]. *)
let invoke e h arg =
  (* Checker probe: every synchronous invocation funnels through here,
     so an inactive handler reaching this point means some dispatch
     path skipped the active filter — report it to the concurrency
     checkers rather than fail silently. *)
  if not h.active && h != e.default_handler then
    report_violation e.disp
      (Printf.sprintf "%s: invoking inactive handler from %s"
         e.e_name h.installer);
  e.s_invocations <- e.s_invocations + 1;
  match h.bound with
  | None -> call e h arg
  | Some bound ->
    let clock = e.disp.clock in
    let before = Spin_machine.Clock.now clock in
    (match call e h arg with
     | r ->
       let spent = Spin_machine.Clock.now clock - before in
       if spent > bound then begin
         (* Overran its quantum: the dispatcher aborts the handler and
            discards its result. The overrun is reported but the
            handler stays installed — repeat offenders are the
            supervisor's call. *)
         e.s_aborted <- e.s_aborted + 1;
         if h != e.default_handler then
           report_fault e h (Handler_overrun { bound; spent }) ~removed:false;
         raise_notrace Discarded
       end
       else r
     | exception Discarded ->
       (* [call] already reported the fault. *)
       if Spin_machine.Clock.now clock - before > bound then
         e.s_aborted <- e.s_aborted + 1;
       raise_notrace Discarded)

let run_sync e h arg acc =
  match invoke e h arg with
  | r -> r :: acc
  | exception Discarded -> acc

let singleton e r =
  match e.single with
  | [ r' ] when r' == r -> e.single
  | _ -> let l = [ r ] in e.single <- l; l

(* A sole handler's raise: its result through [combine], with no
   intermediate lists. *)
let sole_result e h arg =
  match invoke e h arg with
  | r -> e.combine (singleton e r)
  | exception Discarded -> e.combine []

let fast_call e h arg =
  if h == e.default_handler then begin
    e.s_invocations <- e.s_invocations + 1;
    h.fn arg
  end
  else sole_result e h arg

(* Hold at a closed gate until the swap that closed it drains us. A
   wait hook that answers false exempts the caller (the swap strand
   itself must dispatch through its own gate); with no hook installed
   — no scheduler to park on — the raise passes through. *)
let gate_hold e =
  if e.gated then
    match e.disp.gate_wait with
    | None -> ()
    | Some wait ->
      e.s_gated_waits <- e.s_gated_waits + 1;
      if Trace.on e.disp.tracer then
        Trace.instant e.disp.tracer ~cat:"dispatcher" ~name:"gate_hold"
          ~args:[ ("event", e.e_name) ] ();
      let rec hold () = if e.gated && wait () then hold () in
      hold ()

let deliver e h arg acc =
  if h.async then begin
    e.s_invocations <- e.s_invocations + 1;
    run_async e h arg;
    acc
  end else run_sync e h arg acc

(* One handler on the general path: trusted predicate or guard stack,
   then a synchronous or asynchronous invocation. *)
let general_invoke e h arg acc =
  let clock = e.disp.clock and costs = e.disp.costs and tr = e.disp.tracer in
  (* A handler may be evicted mid-dispatch (supervisor quarantine
     triggered by an earlier handler's fault): honor the eviction
     before invoking. *)
  if not h.active then acc
  else
    match h.trusted with
    | Some pred ->
      (* Verified handler among many: still no guard stack and no
         bound stamping, just the compiled predicate. *)
      Spin_machine.Clock.charge clock costs.trusted_eval;
      if not (pred arg) then acc
      else begin
        e.s_trusted <- e.s_trusted + 1;
        Spin_machine.Clock.charge clock costs.trusted_invoke;
        if Trace.on tr then
          Trace.instant tr ~cat:"dispatcher" ~name:"invoke"
            ~args:[ ("event", e.e_name); ("installer", h.installer);
                    ("path", "trusted") ] ();
        deliver e h arg acc
      end
    | None ->
      if not (guards_pass e h arg h.guards) then acc
      else begin
        Spin_machine.Clock.charge clock costs.handler_invoke;
        if Trace.on tr then
          Trace.instant tr ~cat:"dispatcher" ~name:"invoke"
            ~args:[ ("event", e.e_name); ("installer", h.installer);
                    ("async", string_of_bool h.async) ] ();
        deliver e h arg acc
      end

let rec invoke_linear e handlers i arg acc =
  if i = Array.length handlers then acc
  else
    invoke_linear e handlers (i + 1) arg (general_invoke e handlers.(i) arg acc)

let rec invoke_indexed e bucket arg acc =
  match bucket with
  | [] -> acc
  | h :: rest -> invoke_indexed e rest arg (general_invoke e h arg acc)

let dispatch_general e handlers arg =
  let clock = e.disp.clock and costs = e.disp.costs and tr = e.disp.tracer in
  Spin_machine.Clock.charge clock costs.dispatch_fixed;
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"dispatcher" ~name:e.e_name
        ~args:[ ("path", "slow") ] ()
    else Trace.null_span in
  (* Indexed handlers are found by hashing, not by walking guards:
     one lookup regardless of how many keys are registered. The
     bucket is filtered before any handler runs, so a handler revived
     mid-dispatch waits for the next raise. *)
  let indexed_handlers =
    match e.index with
    | None -> []
    | Some index ->
      Spin_machine.Clock.charge clock costs.guard_eval;
      (match Hashtbl.find_opt e.indexed (index arg) with
       | Some bucket -> List.filter (fun h -> h.active) !bucket
       | None -> []) in
  let results =
    invoke_indexed e indexed_handlers arg (invoke_linear e handlers 0 arg []) in
  match e.combine (List.rev results) with
  | r -> Trace.end_span tr sp; r
  | exception exn -> Trace.end_span tr sp; raise exn

let dispatch e arg =
  let clock = e.disp.clock and tr = e.disp.tracer in
  match e.plan with
  | Trusted_sole (h, pred) ->
    (* Trusted-fast path: the predicate was proven at install time, so
       the raise charges only the compiled-predicate and trusted-call
       costs — no guard-stack walk, no bound stamping. *)
    Spin_machine.Clock.charge clock e.disp.costs.trusted_eval;
    if pred arg then begin
      e.s_trusted <- e.s_trusted + 1;
      Spin_machine.Clock.charge clock e.disp.costs.trusted_invoke;
      if Trace.on tr then
        Trace.with_span tr ~cat:"dispatcher" ~name:e.e_name
          ~args:[ ("path", "trusted") ] (fun () -> sole_result e h arg)
      else sole_result e h arg
    end
    else e.combine []
  | Fast_sole h ->
    (* Fast path: a raise is a protected procedure call. Only the
       trusted primary gets the raw call — its exceptions propagate to
       the raiser, as a direct procedure call's would. A sole extension
       handler still goes through [invoke] so its faults are caught,
       counted, and reported. *)
    e.s_fast <- e.s_fast + 1;
    Spin_machine.Clock.charge clock
      (Spin_machine.Clock.cost clock).Spin_machine.Cost.cross_module_call;
    if Trace.on tr then
      Trace.with_span tr ~cat:"dispatcher" ~name:e.e_name
        ~args:[ ("path", "fast") ] (fun () -> fast_call e h arg)
    else fast_call e h arg
  | General handlers -> dispatch_general e handlers arg

let raise_event e arg =
  gate_hold e;
  e.s_raises <- e.s_raises + 1;
  (* [in_flight] records the dispatch for the invariant audit. The
     plan's handler snapshot is immutable and every retirement site
     flips [active] before unlinking, so mutation during the dispatch
     — a handler uninstalling its neighbor, a supervisor sweep
     triggered by an earlier handler's fault — is honored by the
     per-handler [active] checks without corrupting the iteration. *)
  e.in_flight <- e.in_flight + 1;
  match dispatch e arg with
  | r -> e.in_flight <- e.in_flight - 1; r
  | exception exn ->
    e.in_flight <- e.in_flight - 1;
    Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ())

let raise_default e fallback arg =
  match raise_event e arg with
  | r -> r
  | exception No_handler _ -> fallback

let indexed_active e = e.n_indexed_active

let handler_count e =
  List.length (active_handlers e)
  + Hashtbl.fold
      (fun _ b acc -> acc + List.length (List.filter (fun h -> h.active) !b))
      e.indexed 0

let stats e = {
  raises = e.s_raises;
  fast_path = e.s_fast;
  invocations = e.s_invocations;
  guard_rejections = e.s_guard_rejections;
  aborted = e.s_aborted;
  handler_failures = e.s_failed;
  stale_skips = e.s_stale_skips;
  gated_waits = e.s_gated_waits;
  trusted_fast = e.s_trusted;
}

(* -------------------- swap-window gating -------------------------- *)

let set_gate_wait t f = t.gate_wait <- f

let gate e = e.gated <- true

let ungate e = e.gated <- false

let is_gated e = e.gated

(* The supervisor-style registry sweep, for gates: close every event
   on which any of [installers] has an active handler, returning the
   names closed so the swap can reopen exactly those. *)
let gate_installers t ~installers =
  List.filter_map
    (fun r ->
      if List.exists (fun i -> List.mem i (r.reg_installers ())) installers
      then begin r.reg_set_gate true; Some r.reg_name end
      else None)
    t.registry

let set_gate_by_name t ~names v =
  List.iter
    (fun r -> if List.mem r.reg_name names then r.reg_set_gate v)
    t.registry

let in_flight_by_name t ~names =
  List.fold_left
    (fun acc r ->
      if List.mem r.reg_name names then acc + r.reg_in_flight () else acc)
    0 t.registry

let audit t report = List.iter (fun r -> r.reg_audit report) t.registry

let topology t =
  List.rev_map
    (fun r -> (r.reg_name, r.reg_owner, r.reg_installers ()))
    t.registry

let handler_installer h = h.installer

let handler_id h = h.h_id

let uninstall_installer t ~installer =
  List.fold_left (fun acc r -> acc + r.reg_remove installer) 0 t.registry

(* ------------------ trusted-path observability -------------------- *)

let trusted_total t =
  List.fold_left (fun acc r -> acc + r.reg_trusted ()) 0 t.registry

let verifier_rejections t = t.s_verifier_rejections

let handler_specs t =
  List.concat_map (fun r -> r.reg_specs ()) (List.rev t.registry)

let installed_specs t ~installer =
  List.filter
    (fun (i : Handler_spec.info) ->
      String.equal i.Handler_spec.i_installer installer)
    (handler_specs t)
