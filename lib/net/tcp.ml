module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Sim = Spin_machine.Sim
module Sched = Spin_sched.Sched
module Dispatcher = Spin_core.Dispatcher

let header_bytes = 16

let flag_syn = 1
let flag_ack = 2
let flag_fin = 4
let flag_rst = 8

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait
  | Close_wait
  | Last_ack
  | Time_wait

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait -> "FIN_WAIT"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Time_wait -> "TIME_WAIT"

type segment = {
  sport : int;
  dport : int;
  seq : int;
  ack : int;
  flags : int;
  data : Pkt.t;
  (* Receive side: a view of the frame the NIC received. Send side: a
     view into the application's send buffer (see [chunk]). *)
}

type unacked = {
  u_seq : int;
  u_flags : int;
  u_data : Pkt.t;                          (* send-buffer view, retransmit-safe *)
}

type conn = {
  engine : engine;
  l_port : int;
  r_addr : Ip.addr;
  r_port : int;
  mutable st : state;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable rcv_nxt : int;
  inflight : unacked Queue.t;            (* oldest first *)
  pending : Pkt.t Queue.t;               (* send-buffer views beyond the window *)
  mutable filling : bool;                (* a burst is leaving; see [transmit] *)
  mutable rx_cb : (Bytes.t -> unit) option;
  rx_buf : Buffer.t;
  mutable reader : Spin_sched.Strand.t option;
  mutable opener : Spin_sched.Strand.t option;
  mutable retries : int;
  mutable rto : Sim.handle option;
  mutable fin_pending : bool;            (* close requested, FIN not sent *)
  mutable delayed_ack : Sim.handle option;
  mutable unacked_rx : int;              (* data segments since last ack *)
}

and engine = {
  machine : Machine.t;
  tracer : Trace.t;
  sched : Sched.t;
  ip : Ip.t;
  event : (segment * Ip.addr, unit) Dispatcher.event;
  mutable demux : (segment * Ip.addr, unit) Dispatcher.handler option;
  conns : (int * Ip.addr * int, conn) Hashtbl.t;
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable next_port : int;
  mutable s_out : int;
  mutable s_in : int;
  mutable s_rexmit : int;
  mutable s_rst : int;
  mutable s_accept : int;
}

type t = engine

let process_cost = 700                    (* per-segment protocol work *)
let window_segments = 8
let mss = 1024
let rto_us = 200_000.
let delayed_ack_us = 10_000.
let max_retries = 8

type stats = {
  segments_sent : int;
  segments_received : int;
  retransmits : int;
  resets : int;
  accepted : int;
}

(* ------------------------------------------------------------------ *)
(* Wire format                                                        *)
(* ------------------------------------------------------------------ *)

(* Build the wire packet: blit the segment's send-buffer view into a
   fresh headroomed buffer (the transmit path's one true copy — the
   retransmit queue keeps its views pristine while IP pushes headers
   into this buffer), then write the TCP header in front. *)
let encode seg =
  let dlen = Pkt.length seg.data in
  let pkt = Pkt.alloc dlen in
  (if dlen > 0 then
     let buf, off, _ = Pkt.view pkt in
     Pkt.blit_to seg.data ~pos:0 buf ~dst_pos:off ~len:dlen);
  let hbuf, hoff = Pkt.push_view pkt header_bytes in
  Bytes.set_uint16_le hbuf hoff seg.sport;
  Bytes.set_uint16_le hbuf (hoff + 2) seg.dport;
  Bytes.set_int32_le hbuf (hoff + 4) (Int32.of_int seg.seq);
  Bytes.set_int32_le hbuf (hoff + 8) (Int32.of_int seg.ack);
  Bytes.set_uint8 hbuf (hoff + 12) seg.flags;
  Bytes.set_uint16_le hbuf (hoff + 14) dlen;
  pkt

let decode b =
  if Pkt.length b < header_bytes then None
  else begin
    let len = Pkt.get_u16_le b 14 in
    if Pkt.length b < header_bytes + len then None
    else
      Some {
        sport = Pkt.get_u16_le b 0;
        dport = Pkt.get_u16_le b 2;
        seq = Pkt.get_u32_le b 4;
        ack = Pkt.get_u32_le b 8;
        flags = Pkt.get_u8 b 12;
        (* The segment data is a view of the received frame — no copy
           until it crosses into the application ([deliver_data]). *)
        data = Pkt.sub b ~pos:header_bytes ~len;
      }
  end

(* ------------------------------------------------------------------ *)
(* Transmission                                                       *)
(* ------------------------------------------------------------------ *)

let charge t = Clock.charge t.machine.Machine.clock process_cost

let flags_to_string flags =
  String.concat ""
    (List.filter_map
       (fun (bit, c) -> if flags land bit <> 0 then Some c else None)
       [ (flag_syn, "S"); (flag_ack, "A"); (flag_fin, "F"); (flag_rst, "R") ])

(* One outgoing segment, encoded for IP: its protocol charge, its
   trace instant and its wire copy. *)
let segment t conn ~seq ~flags data =
  charge t;
  (match conn.delayed_ack with
   | Some h -> Sim.cancel t.machine.Machine.sim h; conn.delayed_ack <- None
   | None -> ());
  conn.unacked_rx <- 0;
  t.s_out <- t.s_out + 1;
  (* Everything carries an ACK except the very first SYN (nothing has
     been received yet, so there is nothing to acknowledge). *)
  let flags =
    if flags land flag_syn <> 0 && conn.rcv_nxt = 0 then flags
    else flags lor flag_ack in
  let tr = t.tracer in
  if Trace.on tr then
    Trace.instant tr ~cat:"tcp" ~name:"tx"
      ~args:[ ("seq", string_of_int seq);
              ("flags", flags_to_string flags);
              ("bytes", string_of_int (Pkt.length data)) ] ();
  (* The blit into the wire frame is a true copy point. *)
  if Pkt.length data > 0 then
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
         ~bytes:(Pkt.length data));
  encode { sport = conn.l_port; dport = conn.r_port;
           seq; ack = conn.rcv_nxt; flags; data }

let emit t conn ~seq ~flags data =
  ignore (Ip.send t.ip ~dst:conn.r_addr ~proto:Ip.proto_tcp
            (segment t conn ~seq ~flags data))

let emit_raw t ~src ~dst seg =
  charge t;
  t.s_out <- t.s_out + 1;
  ignore (Ip.send t.ip ~src ~dst ~proto:Ip.proto_tcp (encode seg))

let seg_len u = Pkt.length u.u_data + (if u.u_flags land (flag_syn lor flag_fin) <> 0 then 1 else 0)

let cancel_rto t conn =
  match conn.rto with
  | Some h -> Sim.cancel t.machine.Machine.sim h; conn.rto <- None
  | None -> ()

(* Put a segment on the retransmit queue and encode it. *)
let queue_segment t conn ~flags data =
  let u = { u_seq = conn.snd_nxt; u_flags = flags; u_data = data } in
  conn.snd_nxt <- conn.snd_nxt + seg_len u;
  Queue.add u conn.inflight;
  segment t conn ~seq:u.u_seq ~flags data

(* Queue the segment that carries the FIN: the close takes effect as
   it is queued, and a retransmit resends it with the FIN still set. *)
let queue_fin t conn data =
  conn.fin_pending <- false;
  conn.st <- (match conn.st with Close_wait -> Last_ack | _ -> Fin_wait);
  queue_segment t conn ~flags:flag_fin data

(* Every segment the window admits, oldest first. A pending FIN rides
   on the last queued chunk, or goes alone when no data waits. *)
let rec stage_window t conn =
  if Queue.length conn.inflight >= window_segments then []
  else if not (Queue.is_empty conn.pending) then begin
    let chunk = Queue.take conn.pending in
    let pkt =
      if conn.fin_pending && Queue.is_empty conn.pending then
        queue_fin t conn chunk
      else queue_segment t conn ~flags:0 chunk in
    pkt :: stage_window t conn
  end else if conn.fin_pending then [ queue_fin t conn (Pkt.empty ()) ]
  else []

let rec arm_rto t conn =
  cancel_rto t conn;
  if not (Queue.is_empty conn.inflight) then
    conn.rto <- Some (Sim.after_us t.machine.Machine.sim rto_us (fun () ->
      conn.rto <- None;
      on_timeout t conn))

and on_timeout t conn =
  if not (Queue.is_empty conn.inflight) && conn.st <> Closed then begin
    conn.retries <- conn.retries + 1;
    if conn.retries > max_retries then begin
      teardown t conn
    end else begin
      (* Go-Back-N: resend everything outstanding, as one burst. *)
      let resend pkts u =
        t.s_rexmit <- t.s_rexmit + 1;
        let tr = t.tracer in
        if Trace.on tr then
          Trace.instant tr ~cat:"tcp" ~name:"retransmit"
            ~args:[ ("seq", string_of_int u.u_seq);
                    ("retries", string_of_int conn.retries) ] ();
        segment t conn ~seq:u.u_seq ~flags:u.u_flags u.u_data :: pkts in
      transmit t conn
        (List.rev (Queue.fold resend [] conn.inflight));
      fill_window t conn
    end
  end

and teardown t conn =
  cancel_rto t conn;
  (match conn.delayed_ack with
   | Some h -> Sim.cancel t.machine.Machine.sim h; conn.delayed_ack <- None
   | None -> ());
  conn.st <- Closed;
  Hashtbl.remove t.conns (conn.l_port, conn.r_addr, conn.r_port);
  (* Wake anything blocked on the connection. *)
  (match conn.reader with
   | Some s -> conn.reader <- None; Sched.unblock t.sched s
   | None -> ());
  (match conn.opener with
   | Some s -> conn.opener <- None; Sched.unblock t.sched s
   | None -> ())

(* Staged segments leave as one driver burst; the RTO is armed once,
   after it. A loopback peer answers inside the send, and its acks
   would refill the window there, ahead of the burst's tail: [filling]
   holds those refills back until the burst is out. *)
and transmit t conn pkts =
  conn.filling <- true;
  ignore (Ip.send_burst t.ip ~dst:conn.r_addr ~proto:Ip.proto_tcp pkts);
  conn.filling <- false;
  if conn.rto = None then arm_rto t conn

(* Push queued data into the window. *)
and fill_window t conn =
  if not conn.filling && conn.st <> Closed then
    match stage_window t conn with
    | [] -> ()
    | pkts -> transmit t conn pkts; fill_window t conn

let transmit_syn t conn =
  transmit t conn [ queue_segment t conn ~flags:flag_syn (Pkt.empty ()) ];
  fill_window t conn

(* ------------------------------------------------------------------ *)
(* Receive path                                                       *)
(* ------------------------------------------------------------------ *)

let deliver_data t conn data =
  if Pkt.length data > 0 then begin
    (* Application hand-off — the receive path's one true copy: out of
       the NIC frame into the app's callback bytes or the reassembly
       buffer. *)
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
         ~bytes:(Pkt.length data));
    match conn.rx_cb with
    | Some cb -> cb (Pkt.contents data)
    | None ->
      Pkt.add_to_buffer conn.rx_buf data;
      (match conn.reader with
       | Some s -> conn.reader <- None; Sched.unblock t.sched s
       | None -> ())
  end

let handle_ack t conn ack =
  let advanced = ref false in
  while not (Queue.is_empty conn.inflight)
        && (let u = Queue.peek conn.inflight in u.u_seq + seg_len u <= ack) do
    ignore (Queue.take conn.inflight);
    advanced := true
  done;
  if !advanced then begin
    conn.snd_una <- max conn.snd_una ack;
    conn.retries <- 0;
    arm_rto t conn;
    fill_window t conn
  end

let handle_established t conn seg =
  if seg.flags land flag_rst <> 0 then teardown t conn
  else begin
    handle_ack t conn seg.ack;
    let expected = conn.rcv_nxt in
    let fin = seg.flags land flag_fin <> 0 in
    if seg.seq = expected then begin
      conn.rcv_nxt <- expected + Pkt.length seg.data + (if fin then 1 else 0);
      let snd_before = conn.snd_nxt in
      deliver_data t conn seg.data;
      if fin then begin
        (match conn.st with
         | Established -> conn.st <- Close_wait
         | Fin_wait -> conn.st <- Time_wait
         | _ -> ());
        (* Wake a blocked reader: EOF. *)
        (match conn.reader with
         | Some s -> conn.reader <- None; Sched.unblock t.sched s
         | None -> ())
      end;
      (* If the receive handler transmitted (an echo, a response), its
         segment already carried the acknowledgement. Otherwise ack
         every second data segment immediately and delay single acks,
         hoping to piggyback them on upcoming data (standard delayed
         acknowledgements). FINs are acknowledged at once. *)
      if conn.snd_nxt = snd_before then begin
        if fin then emit t conn ~seq:conn.snd_nxt ~flags:0 (Pkt.empty ())
        else if Pkt.length seg.data > 0 then begin
          conn.unacked_rx <- conn.unacked_rx + 1;
          if conn.unacked_rx >= 2 then
            emit t conn ~seq:conn.snd_nxt ~flags:0 (Pkt.empty ())
          else if conn.delayed_ack = None then
            conn.delayed_ack <-
              Some (Sim.after_us t.machine.Machine.sim delayed_ack_us
                      (fun () ->
                        conn.delayed_ack <- None;
                        if conn.st <> Closed then
                          emit t conn ~seq:conn.snd_nxt ~flags:0 (Pkt.empty ())))
        end
      end
    end else if seg.seq < expected && (Pkt.length seg.data > 0 || fin) then
      (* Duplicate: re-ack. *)
      emit t conn ~seq:conn.snd_nxt ~flags:0 (Pkt.empty ())
    (* Out-of-order beyond rcv_nxt: dropped (Go-Back-N). *);
    (match conn.st with
     | Last_ack when Queue.is_empty conn.inflight -> teardown t conn
     | Time_wait when Queue.is_empty conn.inflight -> teardown t conn
     | _ -> ())
  end

let segment_arrived t seg src =
  match Hashtbl.find_opt t.conns (seg.dport, src, seg.sport) with
  | Some conn ->
    (match conn.st with
     | Syn_sent ->
       if seg.flags land flag_rst <> 0 then teardown t conn
       else if seg.flags land flag_syn <> 0 then begin
         conn.rcv_nxt <- seg.seq + 1;
         handle_ack t conn seg.ack;
         conn.st <- Established;
         emit t conn ~seq:conn.snd_nxt ~flags:0 (Pkt.empty ());  (* ack *)
         (match conn.opener with
          | Some s -> conn.opener <- None; Sched.unblock t.sched s
          | None -> ())
       end
     | Syn_received ->
       if seg.flags land flag_rst <> 0 then teardown t conn
       else begin
         handle_ack t conn seg.ack;
         if conn.snd_una > 0 then begin
           conn.st <- Established;
           t.s_accept <- t.s_accept + 1;
           match Hashtbl.find_opt t.listeners conn.l_port with
           | Some on_accept -> on_accept conn
           | None -> ()
         end;
         (* A FIN on the handshake-completing segment closes too. *)
         if Pkt.length seg.data > 0 || seg.flags land flag_fin <> 0 then
           handle_established t conn seg
       end
     | Established | Fin_wait | Close_wait | Last_ack | Time_wait ->
       handle_established t conn seg
     | Listen | Closed -> ())
  | None ->
    (* New connection to a listener? *)
    if seg.flags land flag_syn <> 0 && seg.flags land flag_ack = 0
       && Hashtbl.mem t.listeners seg.dport then begin
      let conn = {
        engine = t;
        l_port = seg.dport; r_addr = src; r_port = seg.sport;
        st = Syn_received;
        snd_nxt = 0; snd_una = 0; rcv_nxt = seg.seq + 1;
        inflight = Queue.create (); pending = Queue.create ();
        filling = false;
        rx_cb = None; rx_buf = Buffer.create 256;
        reader = None; opener = None;
        retries = 0; rto = None; fin_pending = false;
        delayed_ack = None; unacked_rx = 0;
      } in
      Hashtbl.replace t.conns (conn.l_port, conn.r_addr, conn.r_port) conn;
      transmit_syn t conn
    end else if seg.flags land flag_rst = 0 then begin
      (* No home for it: RST. *)
      t.s_rst <- t.s_rst + 1;
      emit_raw t ~src:(Ip.local_addr t.ip) ~dst:src
        { sport = seg.dport; dport = seg.sport;
          seq = seg.ack; ack = seg.seq; flags = flag_rst; data = Pkt.empty () }
    end

let handle_segment t (seg, src) =
  t.s_in <- t.s_in + 1;
  charge t;
  let tr = t.tracer in
  if not (Trace.on tr) then segment_arrived t seg src
  else begin
    let sp =
      Trace.begin_span tr ~cat:"tcp" ~name:"rx_segment"
        ~args:[ ("seq", string_of_int seg.seq);
                ("flags", flags_to_string seg.flags);
                ("dport", string_of_int seg.dport);
                ("bytes", string_of_int (Pkt.length seg.data)) ] () in
    match segment_arrived t seg src with
    | () -> Trace.end_span tr sp
    | exception exn -> Trace.end_span tr sp; raise exn
  end

(* ------------------------------------------------------------------ *)
(* Public interface                                                   *)
(* ------------------------------------------------------------------ *)

let create machine sched dispatcher ip =
  let event =
    Dispatcher.declare dispatcher ~name:"TCP.PacketArrived" ~owner:"TCP"
      ~combine:(fun _ -> ()) (fun (_ : segment * Ip.addr) -> ()) in
  let t = {
    machine; tracer = Trace.of_clock machine.Machine.clock;
    sched; ip; event; demux = None;
    conns = Hashtbl.create 64;
    listeners = Hashtbl.create 16;
    next_port = 32768;
    s_out = 0; s_in = 0; s_rexmit = 0; s_rst = 0; s_accept = 0;
  } in
  ignore
    (Ip.attach ip ~protos:[ Ip.proto_tcp ] ~installer:"TCP"
       (fun pkt ->
         match decode pkt.Ip.payload with
         | Some seg ->
           Dispatcher.raise_default t.event () (seg, pkt.Ip.src)
         | None -> ()));
  t.demux <-
    Some (Dispatcher.install_exn t.event ~installer:"TCP" (handle_segment t));
  t

(* Another extension (e.g. Forward) claims some segments: stack a
   guard on the engine's own handler so it never sees them — the
   paper's "a handler can stack additional guards on an event". *)
let add_demux_filter t claimed =
  match t.demux with
  | Some h ->
    Dispatcher.add_guard h
      (fun ((seg : segment), _src) ->
        not (claimed ~dport:seg.dport ~sport:seg.sport))
  | None -> ()

let listen t ~port ~on_accept =
  if Hashtbl.mem t.listeners port then
    invalid_arg "Tcp.listen: port in use";
  Hashtbl.replace t.listeners port on_accept

let unlisten t ~port = Hashtbl.remove t.listeners port

let connect t ~dst ~dst_port =
  let l_port = t.next_port in
  t.next_port <- t.next_port + 1;
  let conn = {
    engine = t;
    l_port; r_addr = dst; r_port = dst_port;
    st = Syn_sent;
    snd_nxt = 0; snd_una = 0; rcv_nxt = 0;
    inflight = Queue.create (); pending = Queue.create ();
    filling = false;
    rx_cb = None; rx_buf = Buffer.create 256;
    reader = None; opener = None;
    retries = 0; rto = None; fin_pending = false;
    delayed_ack = None; unacked_rx = 0;
  } in
  Hashtbl.replace t.conns (l_port, dst, dst_port) conn;
  transmit_syn t conn;
  (* Loopback handshakes complete synchronously inside the transmit;
     wakeups may be spurious, so wait until the state settles. *)
  while conn.st = Syn_sent do
    conn.opener <- Some (Sched.self t.sched);
    Sched.block_current t.sched;
    conn.opener <- None
  done;
  if conn.st = Established then Some conn else None

(* Cut MSS-sized aliasing views directly out of the send buffer onto
   the pending queue — no per-segment copies, no repeated [Bytes.sub]
   of the shrinking tail. *)
let rec chunk pending data pos =
  let len = Pkt.length data in
  if pos < len then begin
    let n = min mss (len - pos) in
    Queue.add (Pkt.sub data ~pos ~len:n) pending;
    chunk pending data (pos + n)
  end

let enqueue t conn ~fin data =
  if conn.st = Established || conn.st = Close_wait then begin
    (* BSD's MSG_EOF: the FIN is pending before the data is queued, so
       it rides on the data's last segment. *)
    if fin then conn.fin_pending <- true;
    if Pkt.length data > 0 || fin then begin
      chunk conn.pending data 0;
      fill_window t conn
    end
  end

let send_pkt t conn data = enqueue t conn ~fin:false data

let send ?(fin = false) t conn data =
  (* Application hand-off: one charged copy of the whole send buffer;
     the window then transmits views of it. *)
  if Bytes.length data > 0 then
    Clock.charge t.machine.Machine.clock
      (Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
         ~bytes:(Bytes.length data));
  enqueue t conn ~fin (Pkt.of_payload ~headroom:0 data)

let on_receive conn cb =
  (* Drain anything buffered before switching to callback mode. *)
  if Buffer.length conn.rx_buf > 0 then begin
    cb (Buffer.to_bytes conn.rx_buf);
    Buffer.clear conn.rx_buf
  end;
  conn.rx_cb <- Some cb

let read t conn =
  let eof () =
    conn.st = Closed || conn.st = Close_wait || conn.st = Time_wait in
  while Buffer.length conn.rx_buf = 0 && not (eof ()) do
    conn.reader <- Some (Sched.self t.sched);
    Sched.block_current t.sched;
    conn.reader <- None
  done;
  let data = Buffer.to_bytes conn.rx_buf in
  Buffer.clear conn.rx_buf;
  data

let close t conn =
  match conn.st with
  | Established | Close_wait | Syn_received ->
    conn.fin_pending <- true;
    fill_window t conn
  | Syn_sent | Listen -> teardown t conn
  | Fin_wait | Last_ack | Time_wait | Closed -> ()

let abort t conn =
  if conn.st <> Closed then begin
    t.s_rst <- t.s_rst + 1;
    emit t conn ~seq:conn.snd_nxt ~flags:flag_rst (Pkt.empty ());
    teardown t conn
  end

let state conn = conn.st

let peer conn = (conn.r_addr, conn.r_port)

let local_port conn = conn.l_port

let stats t = {
  segments_sent = t.s_out;
  segments_received = t.s_in;
  retransmits = t.s_rexmit;
  resets = t.s_rst;
  accepted = t.s_accept;
}
