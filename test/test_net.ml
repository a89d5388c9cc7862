(* Tests for the network stack: packet buffers, device glue, IP
   routing and forwarding, ICMP, UDP, TCP, Active Messages, RPC, the
   Forward extension, in-kernel HTTP, and the protocol graph. *)

open Alcotest
open Spin_net
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cost = Spin_machine.Cost
module Sim = Spin_machine.Sim
module Nic = Spin_machine.Nic
module Link = Spin_machine.Link
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched

let addr_a = Ip.addr_of_quad 10 0 0 1
let addr_b = Ip.addr_of_quad 10 0 0 2
let addr_c = Ip.addr_of_quad 10 0 0 3

let two_hosts ?(kind = Nic.Lance) () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire a b ~kind);
  (sim, a, b)

(* Run a body in a strand on a host, co-simulating all hosts. *)
let in_strand hosts host body =
  let failure = ref None in
  ignore (Sched.spawn host.Host.sched ~name:"test-body" (fun () ->
    try body () with e -> failure := Some e));
  Host.run_all hosts;
  match !failure with Some e -> raise e | None -> ()

(* ------------------------------------------------------------------ *)
(* Pkt                                                                *)
(* ------------------------------------------------------------------ *)

let test_pkt_push_pull () =
  let p = Pkt.of_string "payload" in
  Pkt.push p (Bytes.of_string "HDR:");
  check int "grown" 11 (Pkt.length p);
  check string "pull returns header" "HDR:" (Bytes.to_string (Pkt.pull p 4));
  check string "payload intact" "payload" (Pkt.to_string p);
  check_raises "short pull" (Invalid_argument "Pkt.pull: short packet")
    (fun () -> ignore (Pkt.pull p 100))

let test_pkt_peek_copy () =
  let p = Pkt.of_string "abcdef" in
  check string "peek" "abc" (Bytes.to_string (Pkt.peek p 3));
  check int "peek non-destructive" 6 (Pkt.length p);
  let q = Pkt.copy p in
  ignore (Pkt.pull p 3);
  check int "copy unaffected" 6 (Pkt.length q)

let test_pkt_push_uses_headroom () =
  (* Transmit-side shape: headers land in reserved headroom without
     moving the payload or reallocating the backing buffer. *)
  let p = Pkt.of_payload ~headroom:16 (Bytes.of_string "data") in
  let backing_before, _, _ = Pkt.view p in
  Pkt.push p (Bytes.of_string "udp.....");
  Pkt.push p (Bytes.of_string "ip...");
  let backing_after, off, len = Pkt.view p in
  check bool "no realloc while headroom lasts" true
    (backing_before == backing_after);
  check int "headroom consumed" 3 (Pkt.headroom p);
  check int "offset tracks pushes" 3 off;
  check int "window covers headers + payload" 17 len;
  check string "wire image" "ip...udp.....data" (Pkt.to_string p)

let test_pkt_drop_is_zero_copy () =
  (* Receive-side shape: consuming a header advances the view over the
     same backing buffer, and the dropped header stays reusable as
     headroom for a response. *)
  let frame = Bytes.of_string "HDRpayload" in
  let p = Pkt.of_frame frame in
  Pkt.drop p 3;
  let backing, off, _ = Pkt.view p in
  check bool "still the NIC's buffer" true (backing == frame);
  check int "view advanced" 3 off;
  check int "dropped header became headroom" 3 (Pkt.headroom p);
  check string "payload" "payload" (Pkt.to_string p);
  Pkt.push p (Bytes.of_string "RSP");
  check string "echo reuses the consumed header's bytes" "RSPpayload"
    (Pkt.to_string p)

let test_pkt_sub_aliases () =
  let p = Pkt.of_string "abcdef" in
  let v = Pkt.sub p ~pos:2 ~len:3 in
  check string "sub view" "cde" (Pkt.to_string v);
  Pkt.set_u8 v 0 (Char.code 'X');
  check string "write through the view is visible" "abXdef" (Pkt.to_string p)

let test_pkt_headroom_exhaustion_reallocs () =
  let p = Pkt.of_payload ~headroom:2 (Bytes.of_string "tail") in
  Pkt.push p (Bytes.of_string "a-very-long-header:");
  check string "push survived exhaustion" "a-very-long-header:tail"
    (Pkt.to_string p);
  check bool "fresh headroom after the realloc" true (Pkt.headroom p > 0)

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)
(* ------------------------------------------------------------------ *)

let test_addr_format () =
  check string "dotted quad" "10.0.0.1" (Ip.addr_to_string addr_a);
  check int "roundtrip" addr_a
    (Ip.addr_of_quad 10 0 0 1)

(* ------------------------------------------------------------------ *)
(* ICMP / basic delivery                                              *)
(* ------------------------------------------------------------------ *)

let test_ping_round_trip () =
  let _, a, b = two_hosts () in
  let got_reply = ref false in
  in_strand [ a; b ] a (fun () ->
    check bool "sent" true
      (Icmp.ping a.Host.icmp ~dst:addr_b ~seq:1 (fun () -> got_reply := true)));
  check bool "reply arrived" true !got_reply;
  check int "b served one echo" 1 (Icmp.echo_requests_served b.Host.icmp);
  check int "a got one reply" 1 (Icmp.replies_received a.Host.icmp)

let test_ping_rtt_magnitude () =
  (* SPIN's small-packet Ethernet RTT is in the hundreds of us. *)
  let sim, a, b = two_hosts () in
  let done_at = ref 0. in
  in_strand [ a; b ] a (fun () ->
    ignore (Icmp.ping a.Host.icmp ~dst:addr_b ~seq:7 (fun () ->
      done_at := Clock.now_us (Sim.clock sim))));
  check bool "RTT hundreds of microseconds" true
    (!done_at > 100. && !done_at < 2_000.)

(* ------------------------------------------------------------------ *)
(* UDP                                                                *)
(* ------------------------------------------------------------------ *)

let test_udp_delivery_by_port () =
  let _, a, b = two_hosts () in
  let port9 = ref [] and port5 = ref [] in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"nine"
            (fun d -> port9 := Pkt.to_string d.Udp.payload :: !port9));
  ignore (Udp.listen b.Host.udp ~port:5 ~installer:"five"
            (fun d -> port5 := Pkt.to_string d.Udp.payload :: !port5));
  in_strand [ a; b ] a (fun () ->
    check bool "send 9" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.of_string "to-nine"));
    check bool "send 5" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:5 (Bytes.of_string "to-five"));
    check bool "send 77 vanishes quietly" true
      (Udp.send a.Host.udp ~dst:addr_b ~port:77 (Bytes.of_string "noone")));
  check (list string) "port 9" [ "to-nine" ] !port9;
  check (list string) "port 5" [ "to-five" ] !port5

(* Every demux the stack installs is a single verified install: the
   IP ethertype filter on the driver event, each protocol's
   [Ip.attach] and an unbounded [Udp.listen] all dispatch
   trusted-fast. Only a listener that asks for a cycle bound keeps a
   closure guard, so its body stays policed per event. *)
let test_demux_install_shapes () =
  let _, _, b = two_hosts () in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"open" (fun _ -> ()));
  ignore (Udp.listen b.Host.udp ~port:7 ~bound_cycles:5_000
            ~installer:"policed" (fun _ -> ()));
  let spec ~event ~installer =
    match
      List.find_opt
        (fun (i : Dispatcher.Handler_spec.info) ->
          i.Dispatcher.Handler_spec.i_event = event
          && i.Dispatcher.Handler_spec.i_installer = installer)
        (Dispatcher.handler_specs b.Host.dispatcher)
    with
    | Some i -> i
    | None -> failf "no %s handler on %s" installer event in
  List.iter
    (fun (event, installer) ->
      check bool (installer ^ " on " ^ event ^ " is trusted") true
        (spec ~event ~installer).Dispatcher.Handler_spec.i_trusted)
    [ ("Ether.PktArrived", "IP");
      ("IP.PacketArrived", "UDP");
      ("IP.PacketArrived", "TCP");
      ("IP.PacketArrived", "ICMP");
      ("UDP.PacketArrived", "open") ];
  let policed = spec ~event:"UDP.PacketArrived" ~installer:"policed" in
  check bool "bounded listener is not trusted" false
    policed.Dispatcher.Handler_spec.i_trusted;
  check int "bounded listener keeps one closure guard" 1
    policed.Dispatcher.Handler_spec.i_guards;
  check (option int) "bounded listener keeps its bound" (Some 5_000)
    policed.Dispatcher.Handler_spec.i_bound

let test_udp_echo_rtt () =
  let sim, a, b = two_hosts () in
  (* Echo server: a SPIN extension handling packets in the kernel. *)
  ignore (Udp.listen b.Host.udp ~port:7 ~installer:"echo" (fun d ->
    (* Zero-copy echo: response headers overwrite the request's. *)
    ignore (Udp.send_pkt b.Host.udp ~src_port:7 ~dst:d.Udp.src
              ~port:d.Udp.src_port d.Udp.payload)));
  let rtt = ref 0. in
  ignore (Udp.listen a.Host.udp ~port:7070 ~installer:"client" (fun _ ->
    rtt := Clock.now_us (Sim.clock sim)));
  in_strand [ a; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~src_port:7070 ~dst:addr_b ~port:7
              (Bytes.create 16)));
  check bool "echo came back" true (!rtt > 0.);
  (* Calibration target: paper Table 5 says 565 us. Keep a wide band
     here; the bench asserts the shape precisely. *)
  check bool "RTT in the SPIN ballpark" true (!rtt > 250. && !rtt < 1_200.)

let test_udp_mtu_respected () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    let max = Option.get (Udp.max_payload a.Host.udp ~dst:addr_b) in
    check bool "1500-class mtu" true (max > 1_400 && max < 1_500);
    check bool "oversize refused" false
      (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.create (max + 1))))

let test_udp_loopback () =
  let _, a, b = two_hosts () in
  let got = ref None in
  ignore (Udp.listen a.Host.udp ~port:4 ~installer:"self"
            (fun d -> got := Some (Pkt.to_string d.Udp.payload)));
  in_strand [ a; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~dst:addr_a ~port:4 (Bytes.of_string "hi me")));
  check (option string) "local destinations loop back" (Some "hi me") !got

(* ------------------------------------------------------------------ *)
(* IP routing / forwarding                                            *)
(* ------------------------------------------------------------------ *)

let test_ip_forwarding_through_middle_host () =
  (* a -- m -- b at the IP layer: m forwards, ttl drops. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let m = Host.create sim ~name:"m" ~addr:addr_c in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  let na, _ = Host.wire a m ~kind:Nic.Lance in
  let _, nb = Host.wire m b ~kind:Nic.Lance in
  (* a reaches b via m; b replies via m. *)
  Host.add_route a ~dst:addr_b na;
  Host.add_route b ~dst:addr_a nb;
  let got = ref None in
  ignore (Udp.listen b.Host.udp ~port:9 ~installer:"sink"
            (fun d -> got := Some d.Udp.src));
  in_strand [ a; m; b ] a (fun () ->
    ignore (Udp.send a.Host.udp ~dst:addr_b ~port:9 (Bytes.of_string "via m")));
  check bool "delivered across two links" true (!got = Some addr_a);
  check int "m forwarded it" 1 (Ip.stats m.Host.ip).Ip.forwarded

let test_ip_no_route_drops () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    check bool "unroutable send fails" false
      (Udp.send a.Host.udp ~dst:(Ip.addr_of_quad 99 9 9 9) ~port:1
         (Bytes.of_string "lost")));
  check bool "drop counted" true ((Ip.stats a.Host.ip).Ip.dropped > 0)

(* ------------------------------------------------------------------ *)
(* TCP                                                                *)
(* ------------------------------------------------------------------ *)

let test_tcp_connect_and_transfer () =
  let _, a, b = two_hosts () in
  let server_got = Buffer.create 64 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data ->
      Buffer.add_bytes server_got data;
      Tcp.send b.Host.tcp conn (Bytes.of_string "ack!")));
  let client_got = ref "" in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      check string "established" "ESTABLISHED"
        (Tcp.state_to_string (Tcp.state conn));
      Tcp.send a.Host.tcp conn (Bytes.of_string "hello tcp");
      client_got := Bytes.to_string (Tcp.read a.Host.tcp conn);
      Tcp.close a.Host.tcp conn);
  check string "server received" "hello tcp" (Buffer.contents server_got);
  check string "client received" "ack!" !client_got

let test_tcp_connect_refused () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    (* No listener on 81: the RST aborts the handshake. *)
    check bool "refused" true
      (Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:81 = None));
  check bool "rst sent" true ((Tcp.stats b.Host.tcp).Tcp.resets > 0)

let test_tcp_large_transfer_segments () =
  let _, a, b = two_hosts () in
  let received = Buffer.create 16384 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
  (* Ten segments: nine full ones and a partial tail. *)
  let payload =
    Bytes.init ((10 * Tcp.mss) - 240) (fun i -> Char.chr (i land 0xff)) in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn -> Tcp.send a.Host.tcp conn payload);
  check int "all bytes across" (Bytes.length payload) (Buffer.length received);
  check bytes "in order and intact" payload (Buffer.to_bytes received);
  check bool "multiple segments" true
    ((Tcp.stats a.Host.tcp).Tcp.segments_sent > 9)

let test_tcp_teardown_states () =
  let _, a, b = two_hosts () in
  let server_conn = ref None in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    server_conn := Some conn);
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.close a.Host.tcp conn;
      (* Let the FIN propagate. *)
      Sched.sleep_us a.Host.sched 5_000.;
      let sconn = Option.get !server_conn in
      check string "server saw the FIN" "CLOSE_WAIT"
        (Tcp.state_to_string (Tcp.state sconn));
      Tcp.close b.Host.tcp sconn;
      Sched.sleep_us a.Host.sched 5_000.;
      check string "client side closed" "CLOSED"
        (Tcp.state_to_string (Tcp.state conn));
      check string "server side closed" "CLOSED"
        (Tcp.state_to_string (Tcp.state sconn)))

let test_tcp_retransmission_on_loss () =
  (* Unplug the wire briefly by sending into a dead link: simulate
     loss by dropping the first data segment via a rogue guard that
     swallows it on the receiver. *)
  let _, a, b = two_hosts () in
  let received = Buffer.create 64 in
  let dropped_once = ref false in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun data -> Buffer.add_bytes received data));
  (* A filter on b's TCP event that consumes the first data segment:
     installed *before* the engine's own handler would be wrong (the
     engine installed at create), so instead drop at the IP layer by
     replacing... simplest honest loss: a guard cannot veto other
     handlers, so we simulate loss with a very lossy first send:
     stop b's scheduler from seeing it is impossible — use the
     retransmit stat instead by sending into a slow path. *)
  ignore dropped_once;
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn (Bytes.of_string "data");
      (* Wait past several RTOs; the transfer must have completed
         without spurious retransmissions. *)
      Sched.sleep_us a.Host.sched 800_000.);
  check string "delivered" "data" (Buffer.contents received);
  check int "no spurious retransmits" 0 (Tcp.stats a.Host.tcp).Tcp.retransmits

(* Every TCP segment [host] receives from [src], in arrival order, as
   (flags, data bytes) — read off IP.PacketArrived by a second handler,
   so segments the engine's demux filters away are seen too. *)
let tcp_tap host ~src =
  let log = ref [] in
  ignore (Ip.attach host.Host.ip ~protos:[ Ip.proto_tcp ] ~installer:"tap"
            (fun pkt ->
              if pkt.Ip.src = src then
                let seg = pkt.Ip.payload in
                log := (Pkt.get_u8 seg 12, Pkt.get_u16_le seg 14) :: !log));
  fun () -> List.rev !log

let flag_syn = 1
let flag_fin = 4
let flag_rst = 8
let flag_psh = 16

let has_fin (flags, _) = flags land flag_fin <> 0

(* Make the [n]th segment [host]'s TCP sees on [port] vanish. *)
let lose_nth host ~port n =
  let seen = ref 0 in
  Tcp.add_demux_filter host.Host.tcp (fun ~dport ~sport:_ ->
    dport = port && (incr seen; !seen = n))

let test_tcp_fin_on_handshake_ack () =
  (* The client's pure handshake ACK is lost, so the FIN+ACK of an
     immediate close completes the server's handshake. Its FIN must
     not be dropped in SYN_RCVD: the server closes at once instead of
     waiting 200 ms for the retransmit. *)
  let _, a, b = two_hosts () in
  let server_conn = ref None in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    server_conn := Some conn);
  lose_nth b ~port:80 2;
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.close a.Host.tcp conn;
      Sched.sleep_us a.Host.sched 5_000.;
      check string "server saw the FIN" "CLOSE_WAIT"
        (Tcp.state_to_string (Tcp.state (Option.get !server_conn)));
      check int "client never retransmitted" 0
        (Tcp.stats a.Host.tcp).Tcp.retransmits)

let connected_pair ?kind ?latency_us ?cpus () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create ?cpus sim ~name:"a" ~addr:addr_a in
  let b = Host.create ?cpus sim ~name:"b" ~addr:addr_b in
  ignore (Host.wire ?latency_us a b ~kind:(Option.value kind ~default:Nic.Lance));
  (a, b)

let test_tcp_send_fin_rides_last_segment () =
  let a, b = connected_pair () in
  let tap = tcp_tap b ~src:addr_a in
  let received = Buffer.create 4096 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  let payload = Bytes.make ((2 * Tcp.mss) + 52) 'x' in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      let before = (Tcp.stats a.Host.tcp).Tcp.segments_sent in
      Tcp.send ~fin:true a.Host.tcp conn payload;
      check int "three segments" 3
        ((Tcp.stats a.Host.tcp).Tcp.segments_sent - before);
      check string "closed for sending" "FIN_WAIT"
        (Tcp.state_to_string (Tcp.state conn));
      Tcp.close a.Host.tcp conn);
  let data = List.filter (fun (_, len) -> len > 0) (tap ()) in
  check (list int) "segment sizes" [ Tcp.mss; Tcp.mss; 52 ]
    (List.map snd data);
  check (list bool) "only the last carries the FIN" [ false; false; true ]
    (List.map has_fin data);
  check int "no FIN of its own" 1 (List.length (List.filter has_fin (tap ())));
  check int "body across" (Bytes.length payload) (Buffer.length received)

let test_tcp_window_fill_is_one_burst () =
  (* A 1-CPU host on the T3: the three segments of one window fill pay
     the driver's full transmit overhead once and its coalesced residue
     twice. A long wire keeps every reply out of the measurement. *)
  let a, b = connected_pair ~kind:Nic.T3 ~latency_us:10_000. ~cpus:1 () in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun _ -> ());
  let sizes = [ Tcp.mss; Tcp.mss; 52 ] in
  let total = List.fold_left ( + ) 0 sizes in
  let clock = a.Host.machine.Machine.clock in
  let copy bytes = Cost.copy_cycles (Clock.cost clock) ~bytes in
  let spent = ref 0 and frames = ref 0 in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      let ip_before = (Ip.stats a.Host.ip).Ip.sent in
      spent := Clock.stamp clock (fun () ->
        Tcp.send a.Host.tcp conn (Bytes.make total 'x'));
      frames := (Ip.stats a.Host.ip).Ip.sent - ip_before);
  check int "three frames" 3 !frames;
  (* Per segment: TCP 700 plus its wire copy, IP 420, DMA setup 500.
     Per burst: T3 transmit 5800, then 5800 / 4 per later frame. *)
  let per_segment len = 700 + copy len + 420 + 500 in
  let expected =
    copy total
    + List.fold_left (fun acc len -> acc + per_segment len) 0 sizes
    + 5800 + (2 * (5800 / 4)) in
  check int "one full overhead, two coalesced" expected !spent

let test_tcp_fin_waits_for_window () =
  let a, b = connected_pair () in
  let tap = tcp_tap b ~src:addr_a in
  let received = Buffer.create 16384 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  let payload = Bytes.init (10 * Tcp.mss) (fun i -> Char.chr (i land 0xff)) in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      let before = (Tcp.stats a.Host.tcp).Tcp.segments_sent in
      Tcp.send ~fin:true a.Host.tcp conn payload;
      check int "one window's worth" 8
        ((Tcp.stats a.Host.tcp).Tcp.segments_sent - before);
      check string "FIN not yet queued" "ESTABLISHED"
        (Tcp.state_to_string (Tcp.state conn));
      Sched.sleep_us a.Host.sched 100_000.;
      check string "FIN went with the tail" "FIN_WAIT"
        (Tcp.state_to_string (Tcp.state conn)));
  let data = List.filter (fun (_, len) -> len > 0) (tap ()) in
  check int "ten data segments" 10 (List.length data);
  check (list bool) "the FIN is on the tenth"
    (List.init 10 (fun i -> i = 9)) (List.map has_fin data);
  check int "no FIN of its own" 1 (List.length (List.filter has_fin (tap ())));
  check bytes "in order and intact" payload (Buffer.to_bytes received)

let test_tcp_lost_data_fin_retransmitted () =
  (* The server sees SYN, ACK, then the data+FIN segment, which is
     lost once. *)
  let a, b = connected_pair () in
  let tap = tcp_tap b ~src:addr_a in
  let body = Buffer.create 64 and eofs = ref 0 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    ignore (Sched.spawn b.Host.sched ~name:"reader" (fun () ->
      let rec drain () =
        let data = Tcp.read b.Host.tcp conn in
        if Bytes.length data > 0 then begin
          Buffer.add_bytes body data;
          drain ()
        end else incr eofs in
      drain ())));
  lose_nth b ~port:80 3;
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send ~fin:true a.Host.tcp conn (Bytes.of_string "request body");
      Sched.sleep_us a.Host.sched 500_000.);
  check int "one retransmit" 1 (Tcp.stats a.Host.tcp).Tcp.retransmits;
  check (list (pair int int)) "both copies carry the data, the FIN and PSH"
    [ (flag_fin lor flag_psh lor 2, 12); (flag_fin lor flag_psh lor 2, 12) ]
    (List.filter (fun (_, len) -> len > 0) (tap ()));
  check string "body once" "request body" (Buffer.contents body);
  check int "EOF once" 1 !eofs

let test_tcp_loopback_window_fills_in_order () =
  (* On loopback the peer acks inside the sender's burst; the window
     it reopens must not be refilled ahead of the burst's tail. *)
  let a, _ = connected_pair () in
  let received = Buffer.create 32768 in
  Tcp.listen a.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  (* Twenty segments: more than two windows. *)
  let payload =
    Bytes.init ((19 * Tcp.mss) + 544) (fun i -> Char.chr (i * 7 land 0xff)) in
  in_strand [ a ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_a ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send ~fin:true a.Host.tcp conn payload;
      Sched.sleep_us a.Host.sched 500_000.);
  check bytes "in order and intact" payload (Buffer.to_bytes received);
  check int "no retransmits" 0 (Tcp.stats a.Host.tcp).Tcp.retransmits

let test_tcp_across_forwarder () =
  (* Client on a Lance, server on ATM, the Forward extension between
     them: every segment the server sends must fit the forwarder's
     Lance side. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  let fwd = Host.create sim ~name:"fwd" ~addr:addr_c in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  ignore (Host.wire client fwd ~kind:Nic.Lance);
  ignore (Host.wire fwd server ~kind:Nic.Fore_atm);
  ignore (Forward.create ~tcp:fwd.Host.tcp fwd.Host.ip ~proto:Ip.proto_tcp
            ~port:80 ~to_:addr_b);
  let tap = tcp_tap client ~src:addr_c in
  let body = Bytes.init 20_480 (fun i -> Char.chr (i * 13 land 0xff)) in
  Tcp.listen server.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun _ -> Tcp.send ~fin:true server.Host.tcp conn body));
  let got = Buffer.create 20_480 in
  in_strand [ client; fwd; server ] client (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_c ~dst_port:80 with
    | None -> fail "connect through the forwarder failed"
    | Some conn ->
      Tcp.send client.Host.tcp conn (Bytes.of_string "GET");
      let rec drain () =
        let data = Tcp.read client.Host.tcp conn in
        if Bytes.length data > 0 then begin
          Buffer.add_bytes got data;
          drain ()
        end in
      drain ();
      Tcp.close client.Host.tcp conn);
  check bytes "response intact" body (Buffer.to_bytes got);
  check bool "every segment fits the Lance" true
    (List.for_all (fun (_, len) -> len <= Tcp.mss) (tap ()));
  check int "server never retransmitted" 0
    (Tcp.stats server.Host.tcp).Tcp.retransmits

(* Pure ACKs (no data, no SYN, FIN or RST) in a tap's log. *)
let pure_acks log =
  List.length
    (List.filter
       (fun (flags, len) ->
         len = 0 && flags land (flag_syn lor flag_fin lor flag_rst) = 0)
       log)

let test_tcp_one_ack_per_burst () =
  (* Five segments leave as one burst; the receiver acks them once,
     at the PSH on the fifth. *)
  let a, b = connected_pair () in
  let tap = tcp_tap a ~src:addr_b in
  let received = Buffer.create 8192 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  let sent = 5 * Tcp.mss in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn (Bytes.make sent 'x');
      Sched.sleep_us a.Host.sched 50_000.);
  check int "all five across" sent (Buffer.length received);
  check int "exactly one pure ack" 1 (pure_acks (tap ()))

let test_tcp_cut_burst_acked_at_its_middle () =
  (* Ten segments: the window takes eight, so that burst carries PSH
     on its fourth segment as well as its eighth, and the ack for the
     first four clocks out more while the rest are on the wire. *)
  let a, b = connected_pair () in
  let tap = tcp_tap b ~src:addr_a in
  let received = Buffer.create 16384 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  let payload = Bytes.init (10 * Tcp.mss) (fun i -> Char.chr (i land 0xff)) in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn payload;
      Sched.sleep_us a.Host.sched 50_000.);
  let data = List.filter (fun (_, len) -> len > 0) (tap ()) in
  check (list bool) "PSH on the middle and the end of the first burst"
    [ false; false; false; true; false; false; false; true ]
    (List.filteri (fun i _ -> i < 8)
       (List.map (fun (flags, _) -> flags land flag_psh <> 0) data));
  check bytes "in order and intact" payload (Buffer.to_bytes received);
  check int "no retransmits" 0 (Tcp.stats a.Host.tcp).Tcp.retransmits

let test_tcp_one_segment_request_no_ack () =
  (* A one-segment request keeps the delayed ACK, which rides on the
     response: the server sends no ACK of its own. *)
  let a, b = connected_pair () in
  let tap = tcp_tap a ~src:addr_b in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun _ ->
      Tcp.send b.Host.tcp conn (Bytes.of_string "response")));
  let got = ref "" in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn (Bytes.of_string "request");
      got := Bytes.to_string (Tcp.read a.Host.tcp conn);
      Sched.sleep_us a.Host.sched 50_000.);
  check string "response" "response" !got;
  check int "no pure ack" 0 (pure_acks (tap ()))

let test_tcp_lost_psh_segment_recovered () =
  (* The server sees SYN, ACK, then five data segments; the fifth, the
     one carrying PSH, is lost. The delayed ACK covers the first four
     and the retransmit brings the fifth. *)
  let a, b = connected_pair () in
  let received = Buffer.create 8192 in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (Buffer.add_bytes received));
  lose_nth b ~port:80 7;
  let payload = Bytes.init (5 * Tcp.mss) (fun i -> Char.chr (i * 3 land 0xff)) in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn ->
      Tcp.send a.Host.tcp conn payload;
      Sched.sleep_us a.Host.sched 500_000.);
  check bytes "in order and intact" payload (Buffer.to_bytes received);
  check int "only the lost segment resent" 1
    (Tcp.stats a.Host.tcp).Tcp.retransmits

let test_tcp_syn_ack_retransmit_reacked () =
  (* The client's handshake ACK is lost and the server speaks first.
     The client is ESTABLISHED, so the server's retransmitted SYN-ACK
     is an old segment: the client must ack it again, or the server
     never accepts and the client's read never returns. *)
  let a, b = connected_pair () in
  let accepted = ref false in
  Tcp.listen b.Host.tcp ~port:80 ~on_accept:(fun conn ->
    accepted := true;
    Tcp.send b.Host.tcp conn (Bytes.of_string "banner"));
  lose_nth b ~port:80 2;
  let got = ref "" in
  in_strand [ a; b ] a (fun () ->
    match Tcp.connect a.Host.tcp ~dst:addr_b ~dst_port:80 with
    | None -> fail "connect failed"
    | Some conn -> got := Bytes.to_string (Tcp.read a.Host.tcp conn));
  check bool "server accepted" true !accepted;
  check string "client read the banner" "banner" !got;
  check int "one SYN-ACK retransmit" 1 (Tcp.stats b.Host.tcp).Tcp.retransmits

(* ------------------------------------------------------------------ *)
(* Active messages and RPC                                            *)
(* ------------------------------------------------------------------ *)

let test_active_messages () =
  let _, a, b = two_hosts () in
  let log = ref [] in
  let h = Active_msg.register b.Host.am (fun ~src payload ->
    log := (src, Bytes.to_string payload) :: !log) in
  in_strand [ a; b ] a (fun () ->
    check bool "sent" true
      (Active_msg.send a.Host.am ~dst:addr_b ~handler:h
         (Bytes.of_string "invoke!")));
  (match !log with
   | [ (src, msg) ] ->
     check int "sender address" addr_a src;
     check string "payload" "invoke!" msg
   | _ -> fail "handler did not run exactly once");
  check int "delivered stat" 1 (Active_msg.stats b.Host.am).Active_msg.delivered

let test_active_message_unknown_handler_dropped () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    ignore (Active_msg.send a.Host.am ~dst:addr_b ~handler:999
              (Bytes.of_string "void")));
  check int "dropped" 1 (Active_msg.stats b.Host.am).Active_msg.dropped

let test_rpc_call () =
  let _, a, b = two_hosts () in
  Rpc.export b.Host.rpc ~name:"double" (fun args ->
    let n = int_of_string (Bytes.to_string args) in
    Bytes.of_string (string_of_int (2 * n)));
  in_strand [ a; b ] a (fun () ->
    match Rpc.call a.Host.rpc ~dst:addr_b ~name:"double" (Bytes.of_string "21") with
    | Some result -> check string "result" "42" (Bytes.to_string result)
    | None -> fail "call failed");
  check int "served" 1 (Rpc.stats b.Host.rpc).Rpc.served

let test_rpc_unknown_procedure () =
  let _, a, b = two_hosts () in
  in_strand [ a; b ] a (fun () ->
    check bool "unknown proc returns None" true
      (Rpc.call a.Host.rpc ~dst:addr_b ~name:"ghost" Bytes.empty = None))

let test_rpc_timeout () =
  let _, a, b = two_hosts () in
  (* A procedure that never answers: simulate by exporting on the
     wrong host — a's call to an address with no AM route... use an
     unroutable address instead. *)
  in_strand [ a; b ] a (fun () ->
    check bool "send failure is immediate None" true
      (Rpc.call a.Host.rpc ~timeout_us:10_000.
         ~dst:(Ip.addr_of_quad 99 0 0 1) ~name:"x" Bytes.empty = None))

let test_rpc_send_failure_retries_without_backoff () =
  (* Regression: a failed send is synchronous — no virtual time passed
     waiting — yet it used to be treated like a timeout, doubling the
     next timeout and counting as a backoff retry. Re-sends after a
     send failure now keep the current timeout and are counted
     separately from timeout-driven retries. *)
  let sim, a, b = two_hosts () in
  let clock = Sim.clock sim in
  in_strand [ a; b ] a (fun () ->
    let t0 = Clock.now_us clock in
    check bool "unroutable call fails" true
      (Rpc.call a.Host.rpc ~timeout_us:1_000_000. ~retries:1
         ~dst:(Ip.addr_of_quad 99 0 0 1) ~name:"x" Bytes.empty = None);
    (* Two synchronous send failures: no timeout was ever waited on. *)
    check bool "failed synchronously, not after a timeout" true
      (Clock.now_us clock -. t0 < 1_000_000.));
  let st = Rpc.stats a.Host.rpc in
  check int "both attempts counted as send failures" 2 st.Rpc.send_failures;
  check int "no backoff retries consumed" 0 st.Rpc.retries;
  check int "no timeouts" 0 st.Rpc.timeouts

let test_rpc_retries_through_outage () =
  (* The wire is totally dark for the first 25 ms: every early attempt
     times out. Exponential-backoff retries keep re-sending until the
     link heals — the caller never sees the outage. *)
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let a = Host.create sim ~name:"a" ~addr:addr_a in
  let b = Host.create sim ~name:"b" ~addr:addr_b in
  let nic_a = Machine.add_nic a.Host.machine ~kind:Nic.Lance in
  let nic_b = Machine.add_nic b.Host.machine ~kind:Nic.Lance in
  let link = Link.create sim ~mbps:(Nic.link_mbps Nic.Lance) () in
  Nic.attach nic_a link Link.A;
  Nic.attach nic_b link Link.B;
  Link.set_loss link ~every:1;
  let na = Netif.create a.Host.machine a.Host.sched a.Host.dispatcher nic_a
      ~name:"Ether" in
  let nb = Netif.create b.Host.machine b.Host.sched b.Host.dispatcher nic_b
      ~name:"Ether" in
  Ip.add_interface a.Host.ip na ~addr:addr_a;
  Ip.add_interface b.Host.ip nb ~addr:addr_b;
  Ip.add_route a.Host.ip ~dst:addr_b na;
  Ip.add_route b.Host.ip ~dst:addr_a nb;
  Netif.start na;
  Netif.start nb;
  Rpc.export b.Host.rpc ~name:"echo" (fun x -> x);
  ignore (Sim.after_us sim 25_000. (fun () -> Link.set_loss link ~every:0));
  in_strand [ a; b ] a (fun () ->
    match
      Rpc.call a.Host.rpc ~timeout_us:10_000. ~retries:3 ~dst:addr_b
        ~name:"echo" (Bytes.of_string "still there?")
    with
    | Some r ->
      check string "answered after the outage" "still there?"
        (Bytes.to_string r)
    | None -> fail "retries did not survive the outage");
  let st = Rpc.stats a.Host.rpc in
  check int "one logical call" 1 st.Rpc.calls;
  check bool "attempts timed out" true (st.Rpc.timeouts >= 2);
  check bool "the request was re-sent" true (st.Rpc.retries >= 2);
  check bool "frames really were lost" true (Link.frames_dropped link >= 2)

let test_rpc_backoff_jitter_range_and_determinism () =
  (* The retry backoff multiplier is jittered — uniform in [1.5, 2.5),
     mean 2.0 — from a seeded SplitMix64 stream: peers that timed out
     together don't re-send in lockstep, yet every run replays
     exactly, and the draw charges no virtual cycles. *)
  let module Sm = Spin_dstruct.Splitmix in
  let rng = Sm.create ~seed:42 and rng' = Sm.create ~seed:42 in
  let n = 2000 in
  let sum = ref 0. and spread = ref false in
  for _ = 1 to n do
    let f = Rpc.backoff_factor rng in
    if f < 1.5 || f >= 2.5 then fail (Printf.sprintf "factor %f out of range" f);
    if f < 1.8 || f > 2.2 then spread := true;
    sum := !sum +. f;
    if f <> Rpc.backoff_factor rng' then fail "same seed diverged"
  done;
  check bool "mean ~ 2.0 (doubling preserved in expectation)" true
    (abs_float ((!sum /. float_of_int n) -. 2.0) < 0.02);
  check bool "draws actually spread over the interval" true !spread;
  check bool "distinct seeds decorrelate" true
    (Rpc.backoff_factor (Sm.create ~seed:1)
     <> Rpc.backoff_factor (Sm.create ~seed:2))

let test_rpc_retry_timing_replays_exactly () =
  (* Regression: jitter must come only from the per-endpoint seeded
     stream — two identical fixtures walk the same retry schedule to
     the microsecond, and the jittered waits stay inside the
     [1.5, 2.5) envelope of the nominal doubling. *)
  let run () =
    let clock = Clock.create Cost.alpha_133 in
    let sim = Sim.create clock in
    let a = Host.create sim ~name:"a" ~addr:addr_a in
    let b = Host.create sim ~name:"b" ~addr:addr_b in
    let nic_a = Machine.add_nic a.Host.machine ~kind:Nic.Lance in
    let nic_b = Machine.add_nic b.Host.machine ~kind:Nic.Lance in
    let link = Link.create sim ~mbps:(Nic.link_mbps Nic.Lance) () in
    Nic.attach nic_a link Link.A;
    Nic.attach nic_b link Link.B;
    Link.set_loss link ~every:1;                 (* dark wire: all lost *)
    let na = Netif.create a.Host.machine a.Host.sched a.Host.dispatcher
        nic_a ~name:"Ether" in
    let nb = Netif.create b.Host.machine b.Host.sched b.Host.dispatcher
        nic_b ~name:"Ether" in
    Ip.add_interface a.Host.ip na ~addr:addr_a;
    Ip.add_interface b.Host.ip nb ~addr:addr_b;
    Ip.add_route a.Host.ip ~dst:addr_b na;
    Ip.add_route b.Host.ip ~dst:addr_a nb;
    Netif.start na;
    Netif.start nb;
    let elapsed = ref 0. in
    in_strand [ a; b ] a (fun () ->
      let t0 = Clock.now_us clock in
      check bool "dark wire times out" true
        (Rpc.call a.Host.rpc ~timeout_us:2_000. ~retries:2 ~dst:addr_b
           ~name:"echo" Bytes.empty = None);
      elapsed := Clock.now_us clock -. t0);
    let st = Rpc.stats a.Host.rpc in
    check int "three attempts timed out" 3 st.Rpc.timeouts;
    !elapsed in
  let e1 = run () and e2 = run () in
  check (float 0.) "identical fixtures replay identically" e1 e2;
  (* attempt timeouts: 2000, 2000*f1, 2000*f1*f2 with f in [1.5, 2.5) *)
  check bool "total wait inside the jitter envelope" true
    (e1 >= 2_000. *. (1. +. 1.5 +. 2.25)
     && e1 < 2_000. *. (1. +. 2.5 +. 6.25) +. 2_000.)

(* ------------------------------------------------------------------ *)
(* Forward extension                                                  *)
(* ------------------------------------------------------------------ *)

let three_hosts () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  let fwd = Host.create sim ~name:"fwd" ~addr:addr_c in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  ignore (Host.wire client fwd ~kind:Nic.Lance);
  ignore (Host.wire fwd server ~kind:Nic.Lance);
  (client, fwd, server)

let test_forward_udp () =
  let client, fwd, server = three_hosts () in
  let f = Forward.create fwd.Host.ip ~proto:Ip.proto_udp ~port:9000
      ~to_:addr_b in
  ignore (Udp.listen server.Host.udp ~port:9000 ~installer:"svc" (fun d ->
    ignore (Udp.send server.Host.udp ~src_port:9000 ~dst:d.Udp.src
              ~port:d.Udp.src_port (Bytes.of_string "pong"))));
  let reply = ref None in
  ignore (Udp.listen client.Host.udp ~port:5555 ~installer:"cl" (fun d ->
    reply := Some (Pkt.to_string d.Udp.payload, d.Udp.src)));
  in_strand [ client; fwd; server ] client (fun () ->
    ignore (Udp.send client.Host.udp ~src_port:5555 ~dst:addr_c ~port:9000
              (Bytes.of_string "ping")));
  (match !reply with
   | Some (msg, from) ->
     check string "reply body" "pong" msg;
     check int "reply appears to come from the forwarder" addr_c from
   | None -> fail "no reply through forwarder");
  check int "both directions forwarded" 2 (Forward.packets_forwarded f);
  check int "one flow" 1 (Forward.active_flows f)

let test_forward_tcp_preserves_semantics () =
  (* Full TCP handshake and teardown through the packet-level
     forwarder: control packets flow end to end. *)
  let client, fwd, server = three_hosts () in
  let f = Forward.create ~tcp:fwd.Host.tcp fwd.Host.ip ~proto:Ip.proto_tcp
      ~port:80 ~to_:addr_b in
  let served = ref false in
  Tcp.listen server.Host.tcp ~port:80 ~on_accept:(fun conn ->
    Tcp.on_receive conn (fun _ ->
      served := true;
      Tcp.send server.Host.tcp conn (Bytes.of_string "forwarded reply")));
  let got = ref "" in
  in_strand [ client; fwd; server ] client (fun () ->
    match Tcp.connect client.Host.tcp ~dst:addr_c ~dst_port:80 with
    | None -> fail "handshake through forwarder failed"
    | Some conn ->
      Tcp.send client.Host.tcp conn (Bytes.of_string "req");
      got := Bytes.to_string (Tcp.read client.Host.tcp conn);
      Tcp.close client.Host.tcp conn;
      Sched.sleep_us client.Host.sched 10_000.);
  check bool "server served" true !served;
  check string "reply crossed back" "forwarded reply" !got;
  check bool "control packets forwarded too" true
    (Forward.packets_forwarded f >= 6);
  Forward.remove f

(* ------------------------------------------------------------------ *)
(* HTTP                                                               *)
(* ------------------------------------------------------------------ *)

let http_fixture () =
  let clock = Clock.create Cost.alpha_133 in
  let sim = Sim.create clock in
  let server = Host.create sim ~name:"server" ~addr:addr_b in
  let client = Host.create sim ~name:"client" ~addr:addr_a in
  ignore (Host.wire client server ~kind:Nic.Lance);
  let disk = Machine.add_disk ~blocks:16384 server.Host.machine in
  let bc = Spin_fs.Block_cache.create ~phys:server.Host.phys server.Host.machine server.Host.sched disk in
  (sim, client, server, bc)

let http_get client server_addr path =
  match Tcp.connect client.Host.tcp ~dst:server_addr ~dst_port:80 with
  | None -> None
  | Some conn ->
    Tcp.send client.Host.tcp conn
      (Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" path));
    let response = Buffer.create 256 in
    let rec drain () =
      let data = Tcp.read client.Host.tcp conn in
      if Bytes.length data > 0 then begin
        Buffer.add_bytes response data;
        drain ()
      end in
    drain ();
    Some (Buffer.contents response)

let test_http_serves_cached_file () =
  let _, client, server, bc = http_fixture () in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"index.html";
    Spin_fs.Simple_fs.write fs ~name:"index.html"
      (Bytes.of_string "<h1>SPIN</h1>");
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    http := Some (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let body = ref None in
  in_strand [ client; server ] client (fun () ->
    body := http_get client addr_b "index.html");
  (match !body with
   | Some response ->
     check bool "200" true
       (String.length response > 15 && String.sub response 9 6 = "200 OK");
     check bool "body present" true
       (String.length response >= 13
        && String.sub response (String.length response - 13) 13 = "<h1>SPIN</h1>")
   | None -> fail "no response");
  let st = Http.stats (Option.get !http) in
  check int "one request" 1 st.Http.requests;
  check int "one ok" 1 st.Http.ok

let test_http_404 () =
  let _, client, server, bc = http_fixture () in
  let http = ref None in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    http := Some (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let body = ref None in
  in_strand [ client; server ] client (fun () ->
    body := http_get client addr_b "missing.html");
  (match !body with
   | Some response ->
     check bool "404" true
       (String.length response > 15 && String.sub response 9 3 = "404")
   | None -> fail "no response");
  check int "counted" 1 (Http.stats (Option.get !http)).Http.not_found

let test_http_cache_hit_faster_than_miss () =
  let sim, client, server, bc = http_fixture () in
  ignore (Sched.spawn server.Host.sched ~name:"setup" (fun () ->
    let fs = Spin_fs.Simple_fs.format bc ~blocks:16384 () in
    Spin_fs.Simple_fs.create fs ~name:"obj";
    Spin_fs.Simple_fs.write fs ~name:"obj" (Bytes.create 8_000);
    let cache = Spin_fs.File_cache.create ~phys:server.Host.phys fs in
    ignore (Http.create server.Host.machine server.Host.sched server.Host.tcp cache)));
  Host.run_all [ client; server ];
  let first = ref 0. and second = ref 0. in
  in_strand [ client; server ] client (fun () ->
    let t0 = Clock.now_us (Sim.clock sim) in
    ignore (http_get client addr_b "obj");
    first := Clock.now_us (Sim.clock sim) -. t0;
    let t1 = Clock.now_us (Sim.clock sim) in
    ignore (http_get client addr_b "obj");
    second := Clock.now_us (Sim.clock sim) -. t1);
  check bool "miss pays the disk (ms)" true (!first > 5_000.);
  check bool "hit is much faster" true (!second < !first /. 2.)

(* ------------------------------------------------------------------ *)
(* Protocol graph                                                     *)
(* ------------------------------------------------------------------ *)

let test_proto_graph_reflects_stack () =
  let _, a, _b = two_hosts () in
  ignore (Udp.listen a.Host.udp ~port:80 ~installer:"HTTP" (fun _ -> ()));
  let events = Proto_graph.network_events a.Host.dispatcher in
  let find name = List.assoc_opt name events in
  (match find "IP.PacketArrived" with
   | Some handlers ->
     List.iter (fun h -> check bool (h ^ " attached") true (List.mem h handlers))
       [ "ICMP"; "UDP"; "TCP"; "A.M." ]
   | None -> fail "IP event missing");
  (match find "UDP.PacketArrived" with
   | Some handlers -> check bool "HTTP listener" true (List.mem "HTTP" handlers)
   | None -> fail "UDP event missing");
  (match find "Ether.PktArrived" with
   | Some handlers -> check bool "IP on ether" true (List.mem "IP" handlers)
   | None -> fail "Ether event missing");
  let rendering = Proto_graph.render a.Host.dispatcher in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0 in
  check bool "render mentions UDP" true (contains rendering "UDP")

let () =
  Alcotest.run "spin_net"
    [
      ( "pkt",
        [
          test_case "push/pull" `Quick test_pkt_push_pull;
          test_case "peek and copy" `Quick test_pkt_peek_copy;
          test_case "push writes into headroom" `Quick
            test_pkt_push_uses_headroom;
          test_case "drop is zero-copy" `Quick test_pkt_drop_is_zero_copy;
          test_case "sub aliases" `Quick test_pkt_sub_aliases;
          test_case "headroom exhaustion reallocs" `Quick
            test_pkt_headroom_exhaustion_reallocs;
        ] );
      ( "ip",
        [
          test_case "address format" `Quick test_addr_format;
          test_case "forwarding through a router" `Quick
            test_ip_forwarding_through_middle_host;
          test_case "no route drops" `Quick test_ip_no_route_drops;
        ] );
      ( "icmp",
        [
          test_case "ping round trip" `Quick test_ping_round_trip;
          test_case "RTT magnitude" `Quick test_ping_rtt_magnitude;
        ] );
      ( "udp",
        [
          test_case "per-port delivery via guards" `Quick test_udp_delivery_by_port;
          test_case "demux install shapes" `Quick test_demux_install_shapes;
          test_case "echo RTT" `Quick test_udp_echo_rtt;
          test_case "mtu respected" `Quick test_udp_mtu_respected;
          test_case "loopback" `Quick test_udp_loopback;
        ] );
      ( "tcp",
        [
          test_case "connect and transfer" `Quick test_tcp_connect_and_transfer;
          test_case "connection refused" `Quick test_tcp_connect_refused;
          test_case "large transfer" `Quick test_tcp_large_transfer_segments;
          test_case "teardown states" `Quick test_tcp_teardown_states;
          test_case "no spurious retransmits" `Quick test_tcp_retransmission_on_loss;
          test_case "FIN on the handshake ACK" `Quick test_tcp_fin_on_handshake_ack;
          test_case "send ~fin rides the last segment" `Quick
            test_tcp_send_fin_rides_last_segment;
          test_case "window fill is one burst" `Quick
            test_tcp_window_fill_is_one_burst;
          test_case "FIN waits for the window" `Quick test_tcp_fin_waits_for_window;
          test_case "lost data+FIN retransmitted" `Quick
            test_tcp_lost_data_fin_retransmitted;
          test_case "transfer across a Lance-ATM forwarder" `Quick
            test_tcp_across_forwarder;
          test_case "one ack per burst" `Quick test_tcp_one_ack_per_burst;
          test_case "cut burst acked at its middle" `Quick
            test_tcp_cut_burst_acked_at_its_middle;
          test_case "one-segment request draws no ack" `Quick
            test_tcp_one_segment_request_no_ack;
          test_case "lost PSH segment recovered" `Quick
            test_tcp_lost_psh_segment_recovered;
          test_case "retransmitted SYN-ACK re-acked" `Quick
            test_tcp_syn_ack_retransmit_reacked;
          test_case "loopback window fills in order" `Quick
            test_tcp_loopback_window_fills_in_order;
        ] );
      ( "am_rpc",
        [
          test_case "active message invocation" `Quick test_active_messages;
          test_case "unknown handler dropped" `Quick
            test_active_message_unknown_handler_dropped;
          test_case "rpc call" `Quick test_rpc_call;
          test_case "rpc unknown procedure" `Quick test_rpc_unknown_procedure;
          test_case "rpc unroutable" `Quick test_rpc_timeout;
          test_case "rpc send failure retries without backoff" `Quick
            test_rpc_send_failure_retries_without_backoff;
          test_case "rpc retries through an outage" `Quick
            test_rpc_retries_through_outage;
          test_case "rpc backoff jitter range and determinism" `Quick
            test_rpc_backoff_jitter_range_and_determinism;
          test_case "rpc retry timing replays exactly" `Quick
            test_rpc_retry_timing_replays_exactly;
        ] );
      ( "forward",
        [
          test_case "udp forwarding" `Quick test_forward_udp;
          test_case "tcp end-to-end semantics" `Quick
            test_forward_tcp_preserves_semantics;
        ] );
      ( "http",
        [
          test_case "serves a cached file" `Quick test_http_serves_cached_file;
          test_case "404" `Quick test_http_404;
          test_case "cache hit beats miss" `Quick test_http_cache_hit_faster_than_miss;
        ] );
      ( "graph",
        [ test_case "reflects the live stack" `Quick test_proto_graph_reflects_stack ] );
    ]
