(** The event dispatcher — the heart of SPIN's extension model.

    An event is a procedure exported from an interface; raising the
    event is calling the procedure. The module that statically exports
    the procedure is its *primary implementation module*: it provides
    the default handler, authorizes additional handler installations
    (possibly attaching guards and execution constraints), and may
    permit removal of the primary handler.

    Dispatch semantics follow the paper:
    - with a single unguarded synchronous handler, a raise is a direct
      procedure call (the 0.13 us protected in-kernel call of Table 2);
    - otherwise the dispatcher evaluates each handler's guard stack and
      invokes the passing handlers, charging per-guard and per-handler
      costs (the linear scaling measured in section 5.5);
    - handlers may be asynchronous (decoupling the raiser from handler
      latency) or bounded in time (aborted — result discarded — when
      they overrun);
    - one result is returned, by default that of the final handler
      executed; an event may install a result-combination function.

    Beyond the paper: a handler whose predicate is expressed as
    {!Ebc} bytecode and passes the install-time verifier takes the
    {e trusted-fast} path — the dispatcher runs the compiled predicate
    and invokes the handler with zero per-event safety checks (no
    guard-stack interpretation, no overrun stamping), the runtime
    checks having been discharged once at install. Installation goes
    through a single entry point taking a {!Handler_spec.t}; the old
    optional-argument entry points remain as deprecated shims. *)

type t
(** A dispatcher instance (one per kernel). *)

type costs = {
  dispatch_fixed : int;   (** slow-path entry bookkeeping *)
  guard_eval : int;       (** evaluating one guard predicate *)
  handler_invoke : int;   (** invoking one handler beyond its body *)
  trusted_eval : int;     (** running one verified, compiled predicate *)
  trusted_invoke : int;   (** invoking a verified handler: no policing *)
}

val default_costs : costs
(** Calibrated against section 5.5: ~0.4 us per false guard, ~1.44 us
    per additional invoked handler. The trusted costs reflect a
    compiled predicate (no interpretation) and an unpoliced call. *)

val create : ?costs:costs -> Spin_machine.Clock.t -> t

val tracer : t -> Spin_machine.Trace.t
(** The clock-shared tracer dispatch records into (raise spans with a
    fast/slow path tag, guard rejections, handler invocations, fault
    markers). Disabled tracing costs one bool check per site. *)

val set_async_spawn : t -> ((unit -> unit) -> unit) -> unit
(** Installs the thread-spawn hook used for asynchronous handlers.
    Before a scheduler exists, asynchronous handlers queue and run at
    the next {!flush_deferred}. *)

(** {2 Failure policies and fault reporting}

    Every installed handler carries an [on_failure] policy. With no
    fault handler attached (no supervisor), all policies degrade to
    today's behavior: a faulting handler is caught, counted, and
    uninstalled. With a fault handler attached (see
    {!set_fault_handler}), exceptions and time-bound overruns are
    routed to it, carrying the policy, the installer identity, and a
    reinstall closure, so a supervisor can quarantine domains and
    restart handlers. *)

type failure_policy =
  | Uninstall
      (** Evict the handler on its first exception (the default). *)
  | Restart of { delay_us : float; backoff : float; max_restarts : int }
      (** Evict on exception, but ask the supervisor to re-install
          after [delay_us * backoff^n] (n = restarts so far), at most
          [max_restarts] times. *)
  | Quarantine of { window_us : float; max_faults : int }
      (** Keep the handler installed across faults (each invocation
          stays isolated), but when its domain accumulates
          [max_faults] faults within [window_us], the supervisor
          evicts the whole domain everywhere. *)

type fault_kind =
  | Handler_exception of exn
  | Handler_overrun of { bound : int; spent : int }

type fault = {
  fault_event : string;        (** event the handler was installed on *)
  fault_owner : string;        (** the event's primary module *)
  fault_installer : string;    (** the faulting handler's installer *)
  fault_policy : failure_policy;
  fault_kind : fault_kind;
  fault_handler_id : int;      (** stable across restarts *)
  fault_removed : bool;        (** handler was evicted by the dispatcher *)
  fault_reinstall : unit -> unit;  (** re-install the evicted handler *)
}

val set_fault_handler : t -> (fault -> unit) -> unit
(** Routes handler faults to a supervisor. Only extension handlers
    report; the primary implementation is trusted and its exceptions
    propagate to the raiser. *)

(** {2 Handler specifications}

    Everything an installation can ask for, in one record — the single
    install surface the facades build on, and the one place restart
    and hot-swap machinery reads policies from. *)

module Handler_spec : sig
  type 'a t = {
    guard : ('a -> bool) option;
        (** closure guard (conjoined with the authorizer's) *)
    bound_cycles : int option;
        (** runtime cycle bound; with [verified] set it becomes the
            install-time step budget instead of a per-event stamp *)
    async : bool;
    index_key : int option;
        (** install into the event's index bucket for this key *)
    on_failure : failure_policy;
    verified : Ebc.program option;
        (** bytecode predicate, verified at install; on success and
            with no [guard]/authorizer constraints the handler takes
            the trusted-fast path *)
    caps : Ebc.cap_slot array;
        (** capability slots the program may name *)
  }

  val default : 'a t
  (** No guard, no bound, synchronous, unindexed, {!Uninstall}. *)

  val guarded : ('a -> bool) -> 'a t
  val bounded : int -> 'a t
  val indexed : int -> 'a t
  val verified : ?caps:Ebc.cap_slot array -> Ebc.program -> 'a t

  (** Type-erased per-handler view, enumerable through the dispatcher
      ({!handler_specs}) so supervisors and swaps see every installed
      handler — linear and indexed — without knowing event types. *)
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

(** {2 Concurrency invariant probes}

    Hooks for the schedule-fuzzing checkers ({!Spin_sched.Sched_fuzz}
    installs them): structural invariants of the handler lists are
    verified without perturbing dispatch. *)

val set_violation_hook : t -> (string -> unit) option -> unit
(** Installs (or clears) the invariant-violation sink. The dispatcher
    reports through it when an internal invariant breaks — e.g. an
    inactive (uninstalled or quarantined) handler reaching an
    invocation site, which means a dispatch path skipped the
    active-handler filter. Charges no virtual cycles. *)

val audit : t -> (string -> unit) -> unit
(** Sweeps every declared event and reports structural violations:
    inactive handlers lingering in a linear handler list, an
    active-indexed count that disagrees with a recount of the index
    buckets (the dispatch plan feeds on that count), dispatches still
    marked in flight at a quiescent point, or an event whose cached
    dispatch plan differs from one recomputed from its handler set (a
    mutation that skipped the replan). Cheap enough to run after every
    test; the fuzzer runs it at every scheduling point. *)

val flush_deferred : t -> int
(** Runs handlers deferred while no spawn hook was installed; returns
    how many ran. *)

type ('a, 'r) event

type ('a, 'r) handler

type 'a decision =
  | Deny
  | Allow of {
      guard : ('a -> bool) option;   (** guard imposed by the primary *)
      bound_cycles : int option;     (** time bound imposed *)
      force_async : bool;            (** isolate the raiser *)
    }

val allow : 'a decision
(** [Allow] with no constraints. *)

exception No_handler of string
(** Raised when an event with no applicable handler needs a result. *)

val declare :
  t ->
  name:string ->
  owner:string ->
  ?ty:Ty.t ->
  ?layout:'a Ebc.layout ->
  ?combine:('r list -> 'r) ->
  ?auth:(installer:string -> 'a decision) ->
  ?index:('a -> int) ->
  ?allow_remove_primary:(requester:string -> bool) ->
  ('a -> 'r) ->
  ('a, 'r) event
(** [declare t ~name ~owner default] declares an event whose default
    implementation is [default], owned by module [owner]. The default
    [combine] returns the last result ([No_handler] when none). By
    default installations are allowed unconstrained and primary
    removal is denied. [?layout] publishes the event's typed field
    table and payload to the bytecode verifier; without it, verified
    installs are rejected with [Ebc.No_layout]. *)

val event_name : ('a, 'r) event -> string

val event_owner : ('a, 'r) event -> string

type install_error =
  | Denied                 (** the primary module refused the installer *)
  | No_index               (** [index_key] on an event with no index *)
  | Rejected of Ebc.error  (** the bytecode failed install-time verification *)

val install_error_to_string : install_error -> string

val install :
  ('a, 'r) event ->
  installer:string ->
  ?spec:'a Handler_spec.t ->
  ('a -> 'r) ->
  (('a, 'r) handler, install_error) result
(** The single install entry point. Installs an additional handler
    per [spec] (default {!Handler_spec.default}), subject to the
    primary module's authorization; authorizer constraints merge with
    the spec's (guards conjoin; the tighter bound wins; async is
    forced if either asks). A [spec.verified] program is checked by
    {!Ebc.verify} against the event's layout before anything is
    linked in — a rejection installs nothing and returns [Rejected].
    On success the handler takes the trusted-fast path, unless a
    closure guard or bound was also requested, in which case the
    compiled program demotes to an ordinary guard. Closure
    pre-application (the old [install_with_closure]) is expressed by
    partially applying [fn]. *)

val install_exn :
  ('a, 'r) event ->
  installer:string ->
  ?guard:('a -> bool) ->
  ?bound_cycles:int ->
  ?async:bool ->
  ?on_failure:failure_policy ->
  ('a -> 'r) ->
  ('a, 'r) handler
(** @deprecated Shim over {!install} + {!Handler_spec} (one release);
    raises [Invalid_argument] on any install error. *)

val install_indexed :
  ('a, 'r) event ->
  installer:string ->
  key:int ->
  ?bound_cycles:int ->
  ?async:bool ->
  ?on_failure:failure_policy ->
  ('a -> 'r) ->
  (('a, 'r) handler, [ `Denied | `No_index ]) result
(** The optimization section 5.5 leaves as future work ("representing
    guard predicates as decision trees"): when the event was declared
    with an [index] function, handlers registered under a key are
    found by hashing the raised argument's index instead of walking a
    linear guard list — equality guards in O(1).
    @deprecated Shim over {!install} with [Handler_spec.indexed]. *)

val install_with_closure :
  ('a, 'r) event ->
  installer:string ->
  closure:'c ->
  ?guard:('c -> 'a -> bool) ->
  ?bound_cycles:int ->
  ?async:bool ->
  ?on_failure:failure_policy ->
  ('c -> 'a -> 'r) ->
  (('a, 'r) handler, [ `Denied ]) result
(** The paper's footnote 1: "the dispatcher also allows a handler to
    specify an additional closure to be passed to the handler during
    event processing", letting one handler procedure serve several
    contexts. The closure is passed to the guard as well.
    @deprecated Shim over {!install}: partially apply the closure. *)

val add_guard : ('a, 'r) handler -> ('a -> bool) -> unit
(** Stacks one more guard on a handler (conjunction). On a trusted
    handler this forfeits the trusted-fast path: the compiled verified
    predicate demotes to the front of the guard stack and the handler
    reverts to the guarded (policed) path. *)

val uninstall : ('a, 'r) event -> ('a, 'r) handler -> unit

val remove_primary :
  ('a, 'r) event -> requester:string -> (unit, [ `Denied ]) result
(** Removes the default handler from dispatch, if the primary module
    allows it. *)

val reinstate_primary : ('a, 'r) event -> unit

val raise_event : ('a, 'r) event -> 'a -> 'r
(** Raise the event. May raise {!No_handler}. *)

val raise_default : ('a, 'r) event -> 'r -> 'a -> 'r
(** [raise_default e fallback arg] is [raise_event e arg], returning
    [fallback] instead of raising {!No_handler} (useful for unit
    events with optional listeners). *)

val handler_count : ('a, 'r) event -> int
(** Active handlers, including the primary. *)

val indexed_active : ('a, 'r) event -> int
(** Active handlers across the event's index buckets. This — not the
    bucket count, which retains uninstalled handlers — feeds the
    dispatch plan, so it drops back to 0 (and the fast path resumes)
    once every indexed handler is uninstalled or quarantined. *)

type stats = {
  raises : int;
  fast_path : int;      (** raises that collapsed to a direct call *)
  invocations : int;    (** handler bodies executed *)
  guard_rejections : int;
  aborted : int;        (** bounded handlers that overran *)
  handler_failures : int;
  (** extension handlers that raised: caught, counted, uninstalled —
      failure is isolated to the extension (paper, section 4.3).
      Primary-handler exceptions propagate (the default implementation
      is trusted). *)
  stale_skips : int;
  (** asynchronous handler invocations skipped because the handler was
      uninstalled (or its domain quarantined) between the raise and the
      deferred thunk running — the dispatch-during-uninstall race,
      detected and resolved in the handler's disfavor. *)
  gated_waits : int;
  (** raises that arrived while the event was gated (a hot-swap window)
      and were held until the gate reopened. *)
  trusted_fast : int;
  (** dispatches delivered through the trusted-fast path: a verified
      predicate matched and the handler ran with zero per-event
      guard/bound checks. *)
}

val stats : ('a, 'r) event -> stats

val trusted_total : t -> int
(** Trusted-fast dispatches summed across every declared event — the
    quiescence counter for the verified path. *)

val verifier_rejections : t -> int
(** Installs refused because their bytecode failed verification. *)

val handler_specs : t -> Handler_spec.info list
(** Every installed extension handler (linear and indexed, active and
    quarantined) across every event, in declaration order — the one
    enumeration supervisors and swap tooling share. *)

val installed_specs : t -> installer:string -> Handler_spec.info list
(** {!handler_specs} filtered to one installer (a domain). *)

val topology : t -> (string * string * string list) list
(** [(event, owner, handler installers)] for every declared event, in
    declaration order — the data behind Figure 5. *)

val handler_installer : ('a, 'r) handler -> string

val handler_id : ('a, 'r) handler -> int
(** Stable identity assigned at install, preserved across supervisor
    restarts of the handler. *)

val uninstall_installer : t -> installer:string -> int
(** Evicts every handler installed under [installer] across every
    declared event (linear and indexed) — the primitive behind domain
    quarantine. Returns how many handlers were evicted. Primary
    (default) handlers are never touched. *)

(** {2 Swap-window gating}

    A hot swap ({!Spin.Swap}) must stop dispatch into the extension
    being replaced without dropping the requests that arrive while its
    handlers are re-pointed. Gating an event makes {!raise_event} hold
    the raiser at the event's edge — before any cost is charged or
    handler consulted — until the gate reopens; the held raise then
    proceeds against the replacement handlers. *)

val set_gate_wait : t -> (unit -> bool) option -> unit
(** Installs the hook a gated raise parks on. The hook blocks the
    calling strand until the swap drains the gate and returns [true]
    (re-check the gate: spurious wakeups and back-to-back swaps are
    handled by looping) or [false] (the caller is exempt — the swap
    strand itself — and passes through). With no hook installed, gated
    raises pass through: there is no scheduler to park on. *)

val gate : ('a, 'r) event -> unit
(** Close the event's gate. *)

val ungate : ('a, 'r) event -> unit
(** Reopen the event's gate. Waiters parked by the {!set_gate_wait}
    hook must be woken by the caller (the hook's other half). *)

val is_gated : ('a, 'r) event -> bool

val gate_installers : t -> installers:string list -> string list
(** Closes the gate of every event on which any of [installers] has an
    active handler, and returns the names of the events closed — the
    exact set to reopen once the swap commits. *)

val set_gate_by_name : t -> names:string list -> bool -> unit
(** Sets the gate of every named event — [true] closes, [false]
    reopens. Used with the list {!gate_installers} returned. *)

val in_flight_by_name : t -> names:string list -> int
(** Dispatches currently executing inside the named events. New raises
    park at a closed gate {e before} counting as in flight, so a swap
    can quiesce: gate, then yield until this reaches zero — everything
    already inside the old handlers has finished. *)
