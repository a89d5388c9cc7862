type t = {
  clock : Clock.t;
  handlers : (int, unit -> unit) Hashtbl.t;
  pending : int Queue.t;
  mutable mask_depth : int;
  mutable delivered : int;
  mutable spurious : int;
  (* Interprocessor interrupts: one FIFO inbox per CPU. A posted IPI
     charges the send cost immediately (the initiating CPU writes the
     IPI register) but its action runs only when the target CPU drains
     its inbox — the scheduler does so at every scheduling point, which
     models "the target takes the interrupt at its next instruction
     boundary". Per-target FIFO order is guaranteed; no order is
     guaranteed between different targets. *)
  n_cpus : int;
  ipi_inbox : (unit -> unit) Queue.t array;
  mutable ipis_sent : int;
  mutable ipis_delivered : int;
  (* The CPU the simulation is currently executing on — host-serial
     execution means exactly one at a time. The scheduler updates it
     as it dispatches; kernel services read it to address shootdowns
     and remote wakeups ("whoami" on real hardware). *)
  mutable active : int;
}

let create ?(cpus = 1) clock =
  if cpus < 1 then invalid_arg "Intr.create: need at least one CPU";
  {
    clock;
    handlers = Hashtbl.create 16;
    pending = Queue.create ();
    mask_depth = 0;
    delivered = 0;
    spurious = 0;
    n_cpus = cpus;
    ipi_inbox = Array.init cpus (fun _ -> Queue.create ());
    ipis_sent = 0;
    ipis_delivered = 0;
    active = 0;
  }

let cpus t = t.n_cpus

let set_active_cpu t cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.set_active_cpu: bad CPU";
  t.active <- cpu

let active_cpu t = t.active

let register t ~line h = Hashtbl.replace t.handlers line h

(* Runs an interrupt or IPI action with further interrupts masked. It
   runs once per interrupt, so the unmask is a [match ... with
   exception], not a [Fun.protect] closure. *)
let run_masked t action =
  t.mask_depth <- t.mask_depth + 1;
  match action () with
  | () -> t.mask_depth <- t.mask_depth - 1
  | exception exn ->
    t.mask_depth <- t.mask_depth - 1;
    Printexc.raise_with_backtrace exn (Printexc.get_raw_backtrace ())

let deliver t line =
  match Hashtbl.find_opt t.handlers line with
  | None -> t.spurious <- t.spurious + 1
  | Some h ->
    let cost = Clock.cost t.clock in
    Clock.charge t.clock cost.Cost.interrupt_entry;
    t.delivered <- t.delivered + 1;
    (* handlers run with further interrupts masked, as on real hardware *)
    run_masked t h;
    Clock.charge t.clock cost.Cost.interrupt_exit

let rec drain t =
  if t.mask_depth = 0 then
    match Queue.take_opt t.pending with
    | None -> ()
    | Some line -> deliver t line; drain t

let post t ~line =
  if t.mask_depth > 0 then Queue.add line t.pending
  else deliver t line;
  drain t

let with_masked t f =
  t.mask_depth <- t.mask_depth + 1;
  let finally () =
    t.mask_depth <- t.mask_depth - 1;
    drain t in
  Fun.protect ~finally f

let masked t = t.mask_depth > 0

let delivered t = t.delivered

let spurious t = t.spurious

(* --- interprocessor interrupts ------------------------------------- *)

let post_ipi t ~cpu action =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.post_ipi: bad CPU";
  Clock.charge t.clock (Clock.cost t.clock).Cost.ipi_send;
  t.ipis_sent <- t.ipis_sent + 1;
  Queue.add action t.ipi_inbox.(cpu)

let drain_ipis t ~cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.drain_ipis: bad CPU";
  let inbox = t.ipi_inbox.(cpu) in
  let n = ref 0 in
  let cost = Clock.cost t.clock in
  while not (Queue.is_empty inbox) do
    let action = Queue.pop inbox in
    Clock.charge t.clock cost.Cost.ipi_deliver;
    t.ipis_delivered <- t.ipis_delivered + 1;
    incr n;
    (* IPI actions run in interrupt context on the target CPU. *)
    run_masked t action
  done;
  !n

let ipis_pending t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.ipi_inbox

let ipis_pending_on t ~cpu =
  if cpu < 0 || cpu >= t.n_cpus then invalid_arg "Intr.ipis_pending_on: bad CPU";
  Queue.length t.ipi_inbox.(cpu)

let broadcast_sync t ~from action =
  if from < 0 || from >= t.n_cpus then
    invalid_arg "Intr.broadcast_sync: bad CPU";
  let cost = Clock.cost t.clock in
  let n = ref 0 in
  for cpu = 0 to t.n_cpus - 1 do
    if cpu <> from then begin
      Clock.charge t.clock cost.Cost.ipi_send;
      t.ipis_sent <- t.ipis_sent + 1;
      Clock.charge t.clock cost.Cost.ipi_deliver;
      t.ipis_delivered <- t.ipis_delivered + 1;
      t.mask_depth <- t.mask_depth + 1;
      Fun.protect ~finally:(fun () -> t.mask_depth <- t.mask_depth - 1)
        (fun () -> action ~cpu);
      incr n
    end
  done;
  !n

let ipis_sent t = t.ipis_sent

let ipis_delivered t = t.ipis_delivered
