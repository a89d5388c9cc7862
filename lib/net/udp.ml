module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Trace = Spin_machine.Trace
module Dispatcher = Spin_core.Dispatcher
module Ebc = Spin_core.Ebc
module Ty = Spin_core.Ty

type datagram = {
  src : Ip.addr;
  src_port : int;
  dst_port : int;
  payload : Pkt.t;
}

let header_bytes = 8

type stats = { sent : int; received : int }

type t = {
  machine : Machine.t;
  tracer : Trace.t;
  ip : Ip.t;
  event : (datagram, unit) Dispatcher.event;
  mutable s_sent : int;
  mutable s_received : int;
}

let process_cost = 380

let input t (pkt : Ip.packet) =
  Clock.charge t.machine.Machine.clock process_cost;
  let b = pkt.Ip.payload in
  if Pkt.length b >= header_bytes then begin
    let src_port = Pkt.get_u16_le b 0 in
    let dst_port = Pkt.get_u16_le b 2 in
    let len = Pkt.get_u16_le b 4 in
    if Pkt.length b >= header_bytes + len then begin
      t.s_received <- t.s_received + 1;
      (* The datagram payload is a view of the received frame — the
         endpoint sees the packet in place, headroom intact for an
         in-place reply. *)
      let payload = Pkt.sub b ~pos:header_bytes ~len in
      let tr = t.tracer in
      if Trace.on tr then
        Trace.instant tr ~cat:"udp" ~name:"rx"
          ~args:[ ("src", Ip.addr_to_string pkt.Ip.src);
                  ("dst_port", string_of_int dst_port);
                  ("bytes", string_of_int len) ] ();
      Dispatcher.raise_default t.event ()
        { src = pkt.Ip.src; src_port; dst_port; payload }
    end
  end

(* The bytecode view of a datagram; [dst_port_slot] is the ABI every
   port-demux program loads. *)
let dst_port_slot = 2

let datagram_layout : datagram Ebc.layout =
  Ebc.layout ~name:"UDP.PacketArrived"
    ~fields:[ ("src", Ty.Int); ("src_port", Ty.Int); ("dst_port", Ty.Int) ]
    ~read:(fun d slot ->
      match slot with
      | 0 -> d.src
      | 1 -> d.src_port
      | 2 -> d.dst_port
      | _ -> 0)
    ~payload:(fun d -> Pkt.view d.payload)
    ()

let create machine dispatcher ip =
  let event =
    Dispatcher.declare dispatcher ~name:"UDP.PacketArrived" ~owner:"UDP"
      ~layout:datagram_layout
      ~combine:(fun _ -> ()) (fun (_ : datagram) -> ()) in
  let t =
    { machine; tracer = Trace.of_clock machine.Machine.clock; ip; event;
      s_sent = 0; s_received = 0 } in
  ignore (Ip.attach ip ~protos:[ Ip.proto_udp ] ~installer:"UDP" (input t));
  t

let packet_arrived t = t.event

(* The UDP module supplies the port guard on every installation — as
   verified bytecode when no runtime bound was requested, so port
   demux dispatches trusted-fast. A caller asking for [bound_cycles]
   wants the handler body policed per event, which is exactly what the
   trusted path forgoes: that case (and any verification failure)
   installs the closure guard instead. *)
let listen ?bound_cycles ?async ?on_failure t ~port ~installer handler =
  let closure_install () =
    Dispatcher.install_exn t.event ~installer ?bound_cycles ?async ?on_failure
      ~guard:(fun d -> d.dst_port = port)
      handler in
  match bound_cycles with
  | Some _ -> closure_install ()
  | None ->
    let spec =
      { (Dispatcher.Handler_spec.verified
           (Ebc.match_field ~slot:dst_port_slot port))
        with Dispatcher.Handler_spec.async = Option.value async ~default:false;
             on_failure =
               Option.value on_failure ~default:Dispatcher.Uninstall } in
    (match Dispatcher.install t.event ~installer ~spec handler with
     | Ok h -> h
     | Error _ -> closure_install ())

let unlisten t h = Dispatcher.uninstall t.event h

let encode_datagram ~src_port ~dst_port payload =
  let b = Bytes.make (header_bytes + Bytes.length payload) '\000' in
  Bytes.set_uint16_le b 0 src_port;
  Bytes.set_uint16_le b 2 dst_port;
  Bytes.set_uint16_le b 4 (Bytes.length payload);
  Bytes.blit payload 0 b header_bytes (Bytes.length payload);
  b

let send_pkt t ?(src_port = 0) ~dst ~port payload =
  Clock.charge t.machine.Machine.clock process_cost;
  let plen = Pkt.length payload in
  let buf, off = Pkt.push_view payload header_bytes in
  Bytes.set_uint16_le buf off src_port;
  Bytes.set_uint16_le buf (off + 2) port;
  Bytes.set_uint16_le buf (off + 4) plen;
  Bytes.set_uint16_le buf (off + 6) 0;
  let ok = Ip.send t.ip ~dst ~proto:Ip.proto_udp payload in
  if ok then t.s_sent <- t.s_sent + 1;
  ok

let send t ?src_port ~dst ~port payload =
  (* Application hand-off: one charged copy into a headroomed buffer,
     then the zero-copy path down the stack. *)
  Clock.charge t.machine.Machine.clock
    (Cost.copy_cycles (Clock.cost t.machine.Machine.clock)
       ~bytes:(Bytes.length payload));
  send_pkt t ?src_port ~dst ~port (Pkt.of_payload payload)

let max_payload t ~dst =
  Ip.mtu_toward t.ip dst |> Option.map (fun m -> m - header_bytes)

let stats t = { sent = t.s_sent; received = t.s_received }
