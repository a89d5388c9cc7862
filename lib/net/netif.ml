module Machine = Spin_machine.Machine
module Nic = Spin_machine.Nic
module Intr = Spin_machine.Intr
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  sched : Sched.t;
  nic : Nic.t;
  name : string;
  rx_event : (Pkt.t, unit) Dispatcher.event;
  rx_shards : int;
  rx_queues : Pkt.t Queue.t array;        (* one per shard *)
  tx_overhead : int;              (* driver cycles per transmitted frame *)
  rx_overhead : int;              (* driver cycles per received frame *)
  rx_batch : int;                 (* frames serviced per protocol-thread wakeup *)
  mutable proto_threads : Spin_sched.Strand.t array;  (* empty until start *)
  mutable frames_rx : int;
  mutable frames_tx : int;
  mutable rx_bursts : int;        (* wakeups that serviced > 1 frame *)
  shard_rx : int array;           (* frames serviced per shard *)
}

(* Unoptimized vendor-driver overheads (cycles), per kind. The paper's
   measured round trips imply large fixed per-packet driver costs:
   "neither the Lance driver nor the FORE driver is optimized for
   latency". *)
let overheads ~optimized kind =
  let scale c = if optimized then c * 2 / 5 else c in
  match kind with
  | Nic.Lance -> (scale 7300, scale 14600)       (* ~55 us tx, ~110 us rx *)
  | Nic.Fore_atm -> (scale 8000, scale 15300)    (* ~60 us tx, ~115 us rx *)
  | Nic.T3 -> (scale 5800, scale 5200)           (* shared vendor driver *)

(* Most of the driver's per-frame cost is taking the interrupt, ring
   bookkeeping and device register traffic; frames serviced on the
   same wakeup amortize all but this residue. *)
let coalesce_divisor = 4

let create ?(optimized = false) ?(rx_batch = 8) ?(rx_shards = 1) machine sched
    dispatcher nic ~name =
  if rx_batch < 1 then invalid_arg "Netif.create: rx_batch";
  if rx_shards < 1 then invalid_arg "Netif.create: rx_shards";
  let tx_overhead, rx_overhead = overheads ~optimized (Nic.kind nic) in
  (* The rx event publishes the raw frame as a bytecode payload: a
     verified packet filter reads wire bytes directly, the way SPIN's
     section-2 foil compiles filters into the kernel. *)
  let rx_event =
    Dispatcher.declare dispatcher ~name:(name ^ ".PktArrived") ~owner:name
      ~layout:(Ebc.layout ~name:(name ^ ".PktArrived")
                 ~fields:[ ("len", Ty.Int) ]
                 ~read:(fun pkt _ -> Pkt.length pkt)
                 ~payload:Pkt.view ())
      ~combine:(fun _ -> ()) (fun (_ : Pkt.t) -> ()) in
  { machine; tracer = Trace.of_clock machine.Machine.clock;
    sched; nic; name; rx_event;
    rx_shards;
    rx_queues = Array.init rx_shards (fun _ -> Queue.create ());
    tx_overhead; rx_overhead; rx_batch;
    proto_threads = [||]; frames_rx = 0; frames_tx = 0; rx_bursts = 0;
    shard_rx = Array.make rx_shards 0 }

let rx_event t = t.rx_event

(* Install a verified packet filter on the receive path: the program
   is checked at install time and dispatches trusted-fast, with zero
   per-frame guard or bound checks. Rejections install nothing. *)
let add_filter t ~installer ?(spec = Dispatcher.Handler_spec.default) program
    handler =
  Dispatcher.install t.rx_event ~installer
    ~spec:{ spec with Dispatcher.Handler_spec.verified = Some program }
    handler

let name t = t.name

let mtu t = Nic.mtu t.nic

let transmit_frame t pkt =
  let buf, off, len = Pkt.view pkt in
  let ok = Nic.transmit t.nic ~off ~len buf in
  if ok then t.frames_tx <- t.frames_tx + 1;
  ok

let transmit t pkt =
  let tr = t.tracer in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".tx")
        ~args:[ ("bytes", string_of_int (Pkt.length pkt)) ] ()
    else Trace.null_span in
  Clock.charge t.machine.Machine.clock t.tx_overhead;
  let ok = transmit_frame t pkt in
  (* The argument list is built only for a live span: disabled tracing
     allocates nothing on the transmit path. *)
  if sp != Trace.null_span then
    Trace.end_span tr sp ~args:[ ("ok", string_of_bool ok) ];
  ok

let rec transmit_coalesced t sent = function
  | [] -> sent
  | pkt :: rest ->
    Clock.charge t.machine.Machine.clock (t.tx_overhead / coalesce_divisor);
    transmit_coalesced t (if transmit_frame t pkt then sent + 1 else sent) rest

(* A burst pays the full driver overhead once; subsequent frames ride
   the same device doorbell and descriptor flush. *)
let transmit_burst t pkts =
  match pkts with
  | [] -> 0
  | first :: rest ->
    let tr = t.tracer in
    let sp =
      if Trace.on tr then
        Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".tx_burst")
          ~args:[ ("frames", string_of_int (List.length pkts)) ] ()
      else Trace.null_span in
    Clock.charge t.machine.Machine.clock t.tx_overhead;
    let sent =
      transmit_coalesced t (if transmit_frame t first then 1 else 0) rest in
    if sp != Trace.null_span then
      Trace.end_span tr sp ~args:[ ("sent", string_of_int sent) ];
    sent

(* Flow steering, netisr-style: hash the flow-identifying header
   bytes — protocol, addresses and ports live in bytes 2..17 of our
   frames — so every frame of a flow lands on the same shard, and the
   same CPU, preserving per-flow ordering without locks. Bytes 4..5
   are the IP payload length: they differ between segments of the
   same connection and MUST stay out of the hash, or a flow sprays
   across shards and its segments reorder (TCP then drops the
   out-of-order tail and eats a retransmit timeout per request). *)
let flow_hash pkt =
  let buf, off, len = Pkt.view pkt in
  let stop = min len 18 in
  let h = ref 0x811c9dc5 in
  for i = 2 to stop - 1 do
    if i <> 4 && i <> 5 then
      h := ((!h lxor Char.code (Bytes.get buf (off + i))) * 0x01000193)
           land 0x3FFFFFFF
  done;
  !h

let shard_of t pkt = if t.rx_shards = 1 then 0 else flow_hash pkt mod t.rx_shards

let service t ~shard pkt ~first =
  let tr = t.tracer in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"netif" ~name:(t.name ^ ".rx")
        ~args:[ ("bytes", string_of_int (Pkt.length pkt)) ] ()
    else Trace.null_span in
  Clock.charge t.machine.Machine.clock
    (if first then t.rx_overhead else t.rx_overhead / coalesce_divisor);
  t.frames_rx <- t.frames_rx + 1;
  t.shard_rx.(shard) <- t.shard_rx.(shard) + 1;
  Dispatcher.raise_default t.rx_event () pkt;
  Trace.end_span tr sp

(* One wakeup drains up to [rx_batch] frames from this shard's queue:
   the first pays the full driver receive overhead, the rest only the
   coalesced residue — the load-scaling path where one interrupt
   services a burst. *)
let protocol_loop t shard () =
  let rx_queue = t.rx_queues.(shard) in
  let rec loop () =
    match Queue.take_opt rx_queue with
    | Some pkt ->
      service t ~shard pkt ~first:true;
      let rec burst n =
        if n >= t.rx_batch then n
        else
          match Queue.take_opt rx_queue with
          | Some pkt -> service t ~shard pkt ~first:false; burst (n + 1)
          | None -> n in
      let serviced = burst 1 in
      if serviced > 1 then t.rx_bursts <- t.rx_bursts + 1;
      Sched.preempt_point t.sched;
      loop ()
    | None ->
      Sched.block_current t.sched;
      loop () in
  loop ()

let start t =
  if Array.length t.proto_threads = 0 then begin
    t.proto_threads <-
      Array.init t.rx_shards (fun shard ->
        let sname =
          if t.rx_shards = 1 then t.name ^ "-input"
          else Printf.sprintf "%s.%d-input" t.name shard in
        let strand =
          Sched.spawn t.sched ~owner:t.name ~priority:20 ~name:sname
            (protocol_loop t shard) in
        (* Each shard is a per-CPU protocol strand: pin it so its
           flows' protocol processing never migrates. *)
        if t.rx_shards > 1 then
          Sched.set_affinity t.sched strand
            (Some (shard mod Sched.ncpus t.sched));
        strand);
    Intr.register t.machine.Machine.intr ~line:(Nic.line t.nic) (fun () ->
      let rec drain () =
        match Nic.receive t.nic with
        | Some frame ->
          (* The ring frame is the wire's copy (made by the sender's
             device): alias it straight into the stack. *)
          let pkt = Pkt.of_frame frame in
          Queue.add pkt t.rx_queues.(shard_of t pkt);
          drain ()
        | None -> () in
      drain ();
      Array.iteri
        (fun shard strand ->
          if not (Queue.is_empty t.rx_queues.(shard)) then
            Sched.unblock t.sched strand)
        t.proto_threads)
  end

let frames_rx t = t.frames_rx

let frames_tx t = t.frames_tx

let rx_bursts t = t.rx_bursts

let shard_frames t = Array.copy t.shard_rx

let rx_shards t = t.rx_shards

let drops t = Nic.rx_dropped t.nic
