(** A passive monitoring extension (paper, section 3.2: "the model
    allows extensions to passively monitor system activity, and
    provide up-to-date performance information to applications").

    The monitor installs counting handlers on events of interest —
    optionally guarded, so it can watch a single instance — and
    reports per-event rates over virtual time. It never perturbs
    results: its handlers cost one dispatch each and return nothing. *)

type t

val create : Spin_machine.Clock.t -> t

val watch : t -> ('a, 'r) Spin_core.Dispatcher.event -> unit
(** Count every raise of the event. *)

val watch_with :
  t -> ('a, 'r) Spin_core.Dispatcher.event -> interest:('a -> bool) -> unit
(** Count only raises whose argument satisfies [interest] (a guard —
    per-instance monitoring). *)

val counts : t -> (string * int) list
(** Events in watch order with their observed raise counts. *)

val watch_netif : t -> Spin_net.Netif.t -> unit
(** Health gauge on the interface's receive-ring drop counter:
    overflow is observable rather than a silent drop. *)

val watch_supervisor : t -> Supervisor.t -> unit
(** Gauges on the supervisor's fault, restart, and quarantine totals,
    plus the backoff hygiene counters (delays capped, attempt counts
    reset after a healthy grace period) and stale-reference
    ([Capability.Revoked]) fault count. *)

val watch_sched : t -> Spin_sched.Sched.t -> unit
(** Gauges on scheduler health, summed across every CPU: machine-wide
    run-queue depth, switches, preemptions, steals, cross-CPU (IPI)
    wakeups, wakeup IPIs still in flight, and raced wakeups recorded.
    The in-flight gauges matter on multiprocessors: a wakeup travelling
    as an IPI is pending work that no run-queue depth shows. *)

val gauges : t -> (string * int) list
(** Registered gauges with their current samples. *)

val report : t -> string
(** Human-readable counts and rates per virtual second, followed by
    the health gauges. *)
