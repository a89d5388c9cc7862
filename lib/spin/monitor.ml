module Dispatcher = Spin_core.Dispatcher
module Clock = Spin_machine.Clock

type t = {
  clock : Clock.t;
  mutable counters : (string * int ref) list;
  mutable gauges : (string * (unit -> int)) list;
  started_at : int;
}

let create clock =
  { clock; counters = []; gauges = []; started_at = Clock.now clock }

(* Counting happens in a guard that always declines, so the monitor
   works on events of any result type and never contributes a result
   to the raiser. The counter is registered only once the install has
   succeeded, so a refused watch leaves nothing behind. *)
let watch_with t event ~interest =
  let name = Dispatcher.event_name event in
  let known = List.assoc_opt name t.counters in
  let c = Option.value known ~default:(ref 0) in
  ignore
    (Dispatcher.ok_exn
       (Dispatcher.install event ~installer:"Monitor"
          ~spec:
            (Dispatcher.Handler_spec.guarded (fun arg ->
                 if interest arg then incr c;
                 false))
          (fun _ -> assert false)));
  if Option.is_none known then t.counters <- t.counters @ [ (name, c) ]

let watch t event = watch_with t event ~interest:(fun _ -> true)

(* Gauges sample state owned elsewhere (device drop counters, the
   supervisor's fault ledger) at report time — overload and failure
   are visible in the same report as event rates, instead of silent. *)
let gauge t ~name sample = t.gauges <- t.gauges @ [ (name, sample) ]

let watch_netif t netif =
  gauge t ~name:(Spin_net.Netif.name netif ^ ".rx_dropped")
    (fun () -> Spin_net.Netif.drops netif)

let watch_supervisor t sup =
  gauge t ~name:"supervisor.faults"
    (fun () -> (Supervisor.stats sup).Supervisor.s_faults);
  gauge t ~name:"supervisor.restarts"
    (fun () -> (Supervisor.stats sup).Supervisor.s_restarts);
  gauge t ~name:"supervisor.quarantines"
    (fun () -> (Supervisor.stats sup).Supervisor.s_quarantines);
  gauge t ~name:"supervisor.backoff_capped"
    (fun () -> (Supervisor.stats sup).Supervisor.s_backoff_capped);
  gauge t ~name:"supervisor.backoff_resets"
    (fun () -> (Supervisor.stats sup).Supervisor.s_backoff_resets);
  gauge t ~name:"supervisor.revoked_uses"
    (fun () -> (Supervisor.stats sup).Supervisor.s_revoked)

(* Scheduler health, summed machine-wide: on a multiprocessor the
   queue-depth gauge spans every CPU's run queue and the in-flight
   gauges count wakeups still travelling as IPIs — work a single-queue
   view would silently miss. *)
let watch_sched t sched =
  let module S = Spin_sched.Sched in
  gauge t ~name:"sched.runnable" (fun () -> S.runnable_count sched);
  gauge t ~name:"sched.switches" (fun () -> (S.stats sched).S.switches);
  gauge t ~name:"sched.preemptions" (fun () -> (S.stats sched).S.preemptions);
  gauge t ~name:"sched.steals" (fun () -> (S.stats sched).S.steals);
  gauge t ~name:"sched.ipi_wakeups" (fun () -> (S.stats sched).S.ipi_wakeups);
  gauge t ~name:"sched.ipis_in_flight" (fun () -> S.pending_ipi_count sched);
  gauge t ~name:"sched.pending_wakeups"
    (fun () -> S.pending_wakeup_count sched)

let counts t = List.map (fun (name, c) -> (name, !c)) t.counters

let gauges t = List.map (fun (name, sample) -> (name, sample ())) t.gauges

let report t =
  let elapsed_us =
    Spin_machine.Cost.cycles_to_us (Clock.cost t.clock)
      (Clock.now t.clock - t.started_at) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "event activity over %.0f us:\n" elapsed_us);
  List.iter
    (fun (name, c) ->
      let rate =
        if elapsed_us > 0. then float_of_int !c /. (elapsed_us /. 1e6)
        else 0. in
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %8d  (%.0f/s)\n" name !c rate))
    t.counters;
  (match t.gauges with
   | [] -> ()
   | gauges ->
     Buffer.add_string buf "health:\n";
     List.iter
       (fun (name, sample) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s %8d\n" name (sample ())))
       gauges);
  Buffer.contents buf
