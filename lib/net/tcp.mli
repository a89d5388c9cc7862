(** TCP, as a SPIN extension.

    A real — though deliberately lean — TCP: three-way handshake,
    cumulative acknowledgements, Go-Back-N retransmission with a
    bounded retry count, fixed-size windows, in-order delivery, and
    FIN/ACK teardown. (The paper borrows the DEC OSF/1 TCP engine and
    asserts its safety; we build our own, which also plays that
    "asserted safe" role in the assembled kernel.)

    Like the paper's stack, the module owns [TCP.PacketArrived] and
    demultiplexes to connections with guards. Blocking operations
    ([connect], [read]) must run in strand context. *)

type t

type conn

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

val state_to_string : state -> string

val header_bytes : int

val create :
  Spin_machine.Machine.t -> Spin_sched.Sched.t -> Spin_core.Dispatcher.t ->
  Ip.t -> t

val add_demux_filter : t -> (dport:int -> sport:int -> bool) -> unit
(** Stack a guard on the engine's demultiplexer: segments for which
    [claimed] is true are invisible to this TCP (no RSTs, no
    delivery). The Forward extension uses this to take over a port
    (paper, section 3.2: handlers stack additional guards). *)

val listen : t -> port:int -> on_accept:(conn -> unit) -> unit
(** Raises [Invalid_argument] if the port already has a listener. *)

val unlisten : t -> port:int -> unit

val connect : t -> dst:Ip.addr -> dst_port:int -> conn option
(** Active open; blocks the calling strand until established, or
    [None] after the handshake retries give out. *)

val send : ?fin:bool -> t -> conn -> Bytes.t -> unit
(** Segments and queues the data; transmission respects the window
    and retransmits on timeout. No-op on a closed connection. Each
    window fill leaves as one driver burst ({!Ip.send_burst}).

    [~fin:true] (default [false]) is BSD's [MSG_EOF]: it also closes
    the sending side, and the FIN rides on the data's last segment
    instead of following in a frame of its own. A later {!close} is
    a no-op.

    Application hand-off: the data is copied once (charged) into a
    private send buffer, and the window then transmits MSS-sized
    {e views} of that buffer — each segment on the wire aliases the
    send buffer rather than owning a fresh copy, and the retransmit
    queue holds the same views. The caller keeps ownership of [data]
    and may reuse it immediately. *)

val send_pkt : t -> conn -> Pkt.t -> unit
(** Zero-copy [send]: the connection takes ownership of the packet and
    cuts its MSS-sized segment views directly from it. The buffer must
    not be mutated by the caller afterwards — the retransmit queue
    aliases it until every byte is acknowledged. *)

val on_receive : conn -> (Bytes.t -> unit) -> unit
(** In-order delivery callback (replaces blocking reads when set).
    The callback receives a private copy (the receive path's single
    charged copy, out of the NIC frame) and owns it. *)

val read : t -> conn -> Bytes.t
(** Blocks the calling strand until data arrives; empty bytes on a
    connection that closed. The returned bytes are the caller's own
    (copied out of the frames at reassembly). *)

val close : t -> conn -> unit
(** Sends FIN; teardown completes asynchronously. *)

val abort : t -> conn -> unit
(** RST out, connection dropped. *)

val state : conn -> state

val peer : conn -> Ip.addr * int

val local_port : conn -> int

type stats = {
  segments_sent : int;
  segments_received : int;
  retransmits : int;
  resets : int;
  accepted : int;
}

val stats : t -> stats
