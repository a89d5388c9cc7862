module Machine = Spin_machine.Machine
module Sim = Spin_machine.Sim
module Trace = Spin_machine.Trace
module Sched = Spin_sched.Sched

type outcome =
  | Pending
  | Replied of Bytes.t   (* ok reply *)
  | Rejected             (* remote answered: unknown procedure *)
  | Timed_out

type waiting = {
  strand : Spin_sched.Strand.t;
  mutable outcome : outcome;
}

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  sched : Sched.t;
  am : Active_msg.t;
  procs : (string, Bytes.t -> Bytes.t) Hashtbl.t;
  calls : (int, waiting) Hashtbl.t;
  jitter : Spin_dstruct.Splitmix.t;
  mutable next_id : int;
  mutable request_handler : int;
  mutable reply_handler : int;
  mutable s_calls : int;
  mutable s_served : int;
  mutable s_timeouts : int;
  mutable s_retries : int;
  mutable s_send_failures : int;
}

(* Request: id u32, ok u8 (unused), namelen u8, name, args.
   Reply:   id u32, ok u8, result. *)

let encode_request ~id ~name args =
  let nlen = String.length name in
  let b = Bytes.make (6 + nlen + Bytes.length args) '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int id);
  Bytes.set_uint8 b 5 nlen;
  Bytes.blit_string name 0 b 6 nlen;
  Bytes.blit args 0 b (6 + nlen) (Bytes.length args);
  b

let encode_reply ~id ~ok result =
  let b = Bytes.make (5 + Bytes.length result) '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int id);
  Bytes.set_uint8 b 4 (if ok then 1 else 0);
  Bytes.blit result 0 b 5 (Bytes.length result);
  b

(* Requests are served on a fresh kernel strand: a service procedure
   may block (nested calls, disk I/O) without stalling the protocol
   input thread. *)
let serve t ~src request =
  let id = Int32.to_int (Bytes.get_int32_le request 0) in
  let nlen = Bytes.get_uint8 request 5 in
  let name = Bytes.sub_string request 6 nlen in
  let args = Bytes.sub request (6 + nlen) (Bytes.length request - 6 - nlen) in
  ignore (Sched.spawn t.sched ~name:("rpc:" ^ name) (fun () ->
    let reply =
      match Hashtbl.find_opt t.procs name with
      | Some proc ->
        t.s_served <- t.s_served + 1;
        encode_reply ~id ~ok:true (proc args)
      | None -> encode_reply ~id ~ok:false Bytes.empty in
    ignore (Active_msg.send t.am ~dst:src ~handler:t.reply_handler reply)))

let accept_reply t ~src:_ reply =
  let id = Int32.to_int (Bytes.get_int32_le reply 0) in
  let ok = Bytes.get_uint8 reply 4 = 1 in
  match Hashtbl.find_opt t.calls id with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.calls id;
    w.outcome <-
      (if ok then Replied (Bytes.sub reply 5 (Bytes.length reply - 5))
       else Rejected);
    Sched.unblock t.sched w.strand

let create machine sched am =
  let t = {
    machine; tracer = Trace.of_clock machine.Machine.clock; sched; am;
    procs = Hashtbl.create 16;
    calls = Hashtbl.create 16;
    (* Per-host deterministic stream: same machine name, same jitter
       sequence, so a simulated run replays exactly. *)
    jitter = Spin_dstruct.Splitmix.create
        ~seed:(Hashtbl.hash machine.Machine.name);
    next_id = 1;
    request_handler = 0; reply_handler = 0;
    s_calls = 0; s_served = 0; s_timeouts = 0; s_retries = 0;
    s_send_failures = 0;
  } in
  t.request_handler <- Active_msg.register am (fun ~src b -> serve t ~src b);
  t.reply_handler <- Active_msg.register am (fun ~src b -> accept_reply t ~src b);
  t

let export t ~name proc = Hashtbl.replace t.procs name proc

let call_once t ~timeout_us ~dst ~name args =
  let id = t.next_id in
  t.next_id <- id + 1;
  let w = { strand = Sched.self t.sched; outcome = Pending } in
  Hashtbl.replace t.calls id w;
  let timer =
    Sim.after_us t.machine.Machine.sim timeout_us (fun () ->
      match Hashtbl.find_opt t.calls id with
      | Some w ->
        Hashtbl.remove t.calls id;
        t.s_timeouts <- t.s_timeouts + 1;
        w.outcome <- Timed_out;
        Sched.unblock t.sched w.strand
      | None -> ()) in
  if not (Active_msg.send t.am ~dst ~handler:t.request_handler
            (encode_request ~id ~name args)) then begin
    Hashtbl.remove t.calls id;
    Sim.cancel t.machine.Machine.sim timer;
    `Send_failed
  end else begin
    (* Loopback calls complete synchronously; network wakeups can be
       spurious, so re-check after every wakeup. *)
    let rec wait () =
      match w.outcome with
      | Pending -> Sched.block_current t.sched; wait ()
      | Replied _ | Rejected | Timed_out -> () in
    wait ();
    Sim.cancel t.machine.Machine.sim timer;
    match w.outcome with
    | Replied r -> `Replied r
    | Rejected -> `Rejected
    | Timed_out | Pending -> `Timed_out
  end

(* The per-retry backoff multiplier: nominally 2.0 (exponential
   doubling), drawn uniformly from [1.5, 2.5) so peers whose calls
   timed out together don't re-send in lockstep forever. Deterministic
   (SplitMix64 seeded from the host name) and free of virtual cycles:
   jitter spreads the retry *schedule*, not the clock. *)
let backoff_factor rng = 1.5 +. Spin_dstruct.Splitmix.float rng

(* A lost request or reply surfaces as a timeout; retries re-send with
   a jittered-doubling timeout each attempt (exponential backoff). A
   [Rejected] outcome means the remote host answered — retrying cannot
   help. A failed send is different from a timeout: it is synchronous
   (no virtual time passed waiting), so re-sending keeps the current
   timeout instead of consuming a backoff step. *)
let call t ?(timeout_us = 1_000_000.) ?(retries = 0) ~dst ~name args =
  t.s_calls <- t.s_calls + 1;
  let tr = t.tracer in
  let sp =
    if Trace.on tr then
      Trace.begin_span tr ~cat:"rpc" ~name
        ~args:[ ("dst", Ip.addr_to_string dst) ] ()
    else Trace.null_span in
  let retry n kind =
    if Trace.on tr then
      Trace.instant tr ~cat:"rpc" ~name:"retry"
        ~args:[ ("proc", name); ("attempt", string_of_int (n + 1));
                ("cause", kind) ] () in
  let finish outcome result =
    if sp != Trace.null_span then
      Trace.end_span tr sp ~args:[ ("outcome", outcome) ];
    result in
  let rec attempt n timeout =
    match call_once t ~timeout_us:timeout ~dst ~name args with
    | `Replied r -> finish "replied" (Some r)
    | `Rejected -> finish "rejected" None
    | `Timed_out ->
      if n >= retries then finish "timed_out" None
      else begin
        t.s_retries <- t.s_retries + 1;
        retry n "timeout";
        attempt (n + 1) (timeout *. backoff_factor t.jitter)
      end
    | `Send_failed ->
      t.s_send_failures <- t.s_send_failures + 1;
      if n >= retries then finish "send_failed" None
      else begin
        retry n "send_failed";
        attempt (n + 1) timeout
      end in
  attempt 0 timeout_us

type stats = {
  calls : int;
  served : int;
  timeouts : int;
  retries : int;
  send_failures : int;
}

let stats t =
  { calls = t.s_calls; served = t.s_served; timeouts = t.s_timeouts;
    retries = t.s_retries; send_failures = t.s_send_failures }
