module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type addr = int

let addr_to_string a =
  Printf.sprintf "%d.%d.%d.%d"
    ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff) (a land 0xff)

let addr_of_quad a b c d =
  ((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16)
  lor ((c land 0xff) lsl 8) lor (d land 0xff)

type packet = {
  src : addr;
  dst : addr;
  proto : int;
  ttl : int;
  payload : Pkt.t;
}

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let ethertype_ip = 0x0800
let link_header = 2                       (* ethertype only: p2p links *)
let ip_header = 12

type iface = {
  netif : Netif.t;
  addr : addr;
}

type stats = {
  received : int;
  delivered : int;
  forwarded : int;
  dropped : int;
  sent : int;
}

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  event : (packet, unit) Dispatcher.event;
  mutable ifaces : iface list;
  mutable routes : (addr * Netif.t) list;
  mutable s_received : int;
  mutable s_delivered : int;
  mutable s_forwarded : int;
  mutable s_dropped : int;
  mutable s_sent : int;
}

let process_cost = 420                    (* header handling per packet *)

(* The bytecode view of a packet: header fields as typed slots, the
   payload as wire bytes. Slot numbers are part of the event's ABI —
   [proto_slot] is what every protocol-demux program loads. *)
let proto_slot = 2

let packet_layout : packet Ebc.layout =
  Ebc.layout ~name:"IP.PacketArrived"
    ~fields:[ ("src", Ty.Int); ("dst", Ty.Int); ("proto", Ty.Int);
              ("ttl", Ty.Int) ]
    ~read:(fun pkt slot ->
      match slot with
      | 0 -> pkt.src
      | 1 -> pkt.dst
      | 2 -> pkt.proto
      | 3 -> pkt.ttl
      | _ -> 0)
    ~payload:(fun pkt -> Pkt.view pkt.payload)
    ()

let create machine dispatcher =
  let event =
    Dispatcher.declare dispatcher ~name:"IP.PacketArrived" ~owner:"IP"
      ~layout:packet_layout
      ~combine:(fun _ -> ()) (fun (_ : packet) -> ()) in
  { machine; tracer = Trace.of_clock machine.Machine.clock; event;
    ifaces = []; routes = [];
    s_received = 0; s_delivered = 0; s_forwarded = 0; s_dropped = 0;
    s_sent = 0 }

let packet_arrived t = t.event

let is_local t a = List.exists (fun i -> i.addr = a) t.ifaces

let local_addr t =
  match t.ifaces with
  | i :: _ -> i.addr
  | [] -> raise Not_found

let route_toward t dst =
  if is_local t dst then None              (* loopback handled in send *)
  else List.assoc_opt dst t.routes

let mtu_toward t dst =
  if is_local t dst then Some 65_000
  else
    route_toward t dst
    |> Option.map (fun netif -> Netif.mtu netif - link_header - ip_header)

(* Write the IP and link headers into the packet's headroom — the
   payload bytes never move. On a forwarded or echoed packet the
   headers land exactly where the received ones sat. *)
let push_headers pkt ~src ~dst ~proto ~ttl =
  let plen = Pkt.length pkt in
  let buf, off = Pkt.push_view pkt ip_header in
  Bytes.set_uint8 buf off proto;
  Bytes.set_uint8 buf (off + 1) ttl;
  Bytes.set_uint16_le buf (off + 2) plen;
  Bytes.set_int32_le buf (off + 4) (Int32.of_int src);
  Bytes.set_int32_le buf (off + 8) (Int32.of_int dst);
  let buf, off = Pkt.push_view pkt link_header in
  Bytes.set_uint16_le buf off ethertype_ip

let encode_frame ~src ~dst ~proto payload =
  let frame = Pkt.of_payload payload in
  push_headers frame ~src ~dst ~proto ~ttl:64;
  frame

let charge t = Clock.charge t.machine.Machine.clock process_cost

let trace_pkt t name pkt =
  let tr = t.tracer in
  if Trace.on tr then
    Trace.instant tr ~cat:"ip" ~name
      ~args:[ ("src", addr_to_string pkt.src);
              ("dst", addr_to_string pkt.dst);
              ("proto", string_of_int pkt.proto) ] ()

let deliver t pkt =
  t.s_delivered <- t.s_delivered + 1;
  trace_pkt t "deliver" pkt;
  Dispatcher.raise_default t.event () pkt

let transmit_on t netif pkt =
  push_headers pkt.payload ~src:pkt.src ~dst:pkt.dst ~proto:pkt.proto
    ~ttl:pkt.ttl;
  if Netif.transmit netif pkt.payload then begin
    t.s_sent <- t.s_sent + 1;
    true
  end else begin
    t.s_dropped <- t.s_dropped + 1;
    false
  end

let send t ?(ttl = 64) ?src ~dst ~proto payload =
  charge t;
  let src = match src with Some s -> s | None -> local_addr t in
  let pkt = { src; dst; proto; ttl; payload } in
  trace_pkt t "send" pkt;
  if is_local t dst then begin
    t.s_sent <- t.s_sent + 1;
    deliver t pkt;
    true
  end else
    match route_toward t dst with
    | None -> t.s_dropped <- t.s_dropped + 1; false
    | Some netif ->
      if Pkt.length payload > Netif.mtu netif - link_header - ip_header
      then begin
        t.s_dropped <- t.s_dropped + 1;
        false
      end else transmit_on t netif pkt

(* A burst's per-datagram IP work, in order: the charge, the trace
   instant and the MTU check. Returns how many datagrams are too large
   for the route. *)
let rec charge_burst t ~src ~dst ~proto ~room oversize = function
  | [] -> oversize
  | payload :: rest ->
    charge t;
    if Trace.on t.tracer then
      trace_pkt t "send" { src; dst; proto; ttl = 64; payload };
    charge_burst t ~src ~dst ~proto ~room
      (if Pkt.length payload > room then oversize + 1 else oversize) rest

let rec push_burst ~src ~dst ~proto = function
  | [] -> ()
  | payload :: rest ->
    push_headers payload ~src ~dst ~proto ~ttl:64;
    push_burst ~src ~dst ~proto rest

let rec send_each t ~dst ~proto sent = function
  | [] -> sent
  | payload :: rest ->
    send_each t ~dst ~proto
      (if send t ~dst ~proto payload then sent + 1 else sent) rest

let send_burst t ~dst ~proto payloads =
  match payloads with
  | [] | [ _ ] -> send_each t ~dst ~proto 0 payloads
  | _ :: _ :: _ ->
    match route_toward t dst with
    | None -> send_each t ~dst ~proto 0 payloads
    | Some netif ->
      let src = local_addr t in
      let room = Netif.mtu netif - link_header - ip_header in
      let oversize = charge_burst t ~src ~dst ~proto ~room 0 payloads in
      let frames =
        if oversize = 0 then payloads
        else List.filter (fun p -> Pkt.length p <= room) payloads in
      push_burst ~src ~dst ~proto frames;
      let sent = Netif.transmit_burst netif frames in
      t.s_sent <- t.s_sent + sent;
      t.s_dropped <- t.s_dropped + oversize + (List.length frames - sent);
      sent

let send_bytes t ?ttl ?src ~dst ~proto payload =
  (* The application hand-off: one charged copy into a fresh buffer
     with header room, then the zero-copy path. *)
  Clock.charge t.machine.Machine.clock
    (Spin_machine.Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
       ~bytes:(Bytes.length payload));
  send t ?ttl ?src ~dst ~proto (Pkt.of_payload payload)

let forward t pkt =
  if pkt.ttl <= 1 then begin
    t.s_dropped <- t.s_dropped + 1;
    trace_pkt t "drop" pkt
  end else
    match route_toward t pkt.dst with
    | None -> t.s_dropped <- t.s_dropped + 1; trace_pkt t "drop" pkt
    | Some netif ->
      t.s_forwarded <- t.s_forwarded + 1;
      trace_pkt t "forward" pkt;
      ignore (transmit_on t netif { pkt with ttl = pkt.ttl - 1 })

let input t frame =
  charge t;
  t.s_received <- t.s_received + 1;
  Pkt.drop frame link_header;
  let proto = Pkt.get_u8 frame 0 in
  let ttl = Pkt.get_u8 frame 1 in
  let len = Pkt.get_u16_le frame 2 in
  let src = Pkt.get_u32_le frame 4 in
  let dst = Pkt.get_u32_le frame 8 in
  Pkt.drop frame ip_header;
  if Pkt.length frame < len then t.s_dropped <- t.s_dropped + 1
  else begin
    (* The payload is the received frame itself, trimmed — the consumed
       headers remain in its headroom for an in-place response. *)
    Pkt.truncate frame len;
    let pkt = { src; dst; proto; ttl; payload = frame } in
    if is_local t dst then deliver t pkt else forward t pkt
  end

let frame_is_ip frame =
  Pkt.length frame >= link_header && Pkt.get_u16_le frame 0 = ethertype_ip

(* The ethertype check as bytecode: a short-frame [Ldw] reads 0, which
   is not the ethertype, so the length test is implied. *)
let frame_is_ip_prog =
  Ebc.[| Ldw (0, 0); Ldi (1, ethertype_ip); Eq (2, 0, 1); Ret 2 |]

let add_interface t netif ~addr =
  t.ifaces <- t.ifaces @ [ { netif; addr } ];
  match Netif.add_filter netif ~installer:"IP" frame_is_ip_prog
          (fun frame -> input t frame) with
  | Ok _ -> ()
  | Error _ ->
    ignore
      (Dispatcher.install_exn (Netif.rx_event netif) ~installer:"IP"
         ~guard:frame_is_ip
         (fun frame -> input t frame))

let add_route t ~dst netif = t.routes <- (dst, netif) :: t.routes

(* "The IP module, which defines the default implementation of the
   PacketArrived event, upon each installation constructs a guard that
   compares the type field in the header of the incoming packet
   against the set of IP protocol types that the handler may
   service." The guard is now constructed as bytecode and verified at
   install, so protocol demux dispatches trusted-fast; if verification
   fails (it cannot, for this generated shape, but the fallback keeps
   the facade total) the same predicate installs as a closure guard. *)
let attach t ~protos ~installer handler =
  let prog = Ebc.match_field_any ~slot:proto_slot protos in
  match
    Dispatcher.install t.event ~installer
      ~spec:(Dispatcher.Handler_spec.verified prog) handler
  with
  | Ok h -> h
  | Error _ ->
    Dispatcher.install_exn t.event ~installer
      ~guard:(fun pkt -> List.mem pkt.proto protos)
      handler

let stats t = {
  received = t.s_received;
  delivered = t.s_delivered;
  forwarded = t.s_forwarded;
  dropped = t.s_dropped;
  sent = t.s_sent;
}
