(* Per-layer counters, read only through the stack's public stats
   accessors. A snapshot is taken when the timed phase starts and
   again when it ends; every per-layer metric is the difference,
   divided by the phase's operations where the name says "per_op".

   Counters are the server host's (the system under test), except the
   event engine and the clock, which both hosts share, and the loss
   counters (netif drops, ip drops, tcp retransmits and resets), which
   are summed over both hosts since either side can lose a request. *)

open Spin_net
module Machine = Spin_machine.Machine
module Clock = Spin_machine.Clock
module Cpu = Spin_machine.Cpu
module Intr = Spin_machine.Intr
module Disk_dev = Spin_machine.Disk_dev
module Sim = Spin_machine.Sim
module Dispatcher = Spin_core.Dispatcher
module Sched = Spin_sched.Sched
module Phys_addr = Spin_vm.Phys_addr
module Pageout = Spin_vm.Pageout
module Cache_stats = Spin_fs.Cache_stats
module File_cache = Spin_fs.File_cache
module Block_cache = Spin_fs.Block_cache

(* What a workload exposes to be counted. *)
type fixture = {
  server : Host.t;
  client : Host.t;
  server_nic : Netif.t;
  client_nic : Netif.t;
  disk : Disk_dev.t option;
  http : Http.t option;
  file_cache : File_cache.t option;
  block_cache : Block_cache.t option;
  pageout : Pageout.t option;
}

let event_names = [ "netif_rx"; "ip"; "udp"; "reclaim"; "select_victim" ]

let dispatcher_stats f =
  let h = f.server in
  [ Dispatcher.stats (Netif.rx_event f.server_nic);
    Dispatcher.stats (Ip.packet_arrived h.Host.ip);
    Dispatcher.stats (Udp.packet_arrived h.Host.udp);
    Dispatcher.stats (Phys_addr.reclaim_event h.Host.phys);
    Dispatcher.stats (Phys_addr.select_victim_event h.Host.phys) ]

type snap = {
  traps : int;
  intr : int;
  ipis : int;
  now : int;
  idle : int;
  disk_reads : int;
  disk_writes : int;
  fired : int;
  cancelled : int;
  pool_hits : int;
  pool_misses : int;
  disp : Dispatcher.stats list;
  sched : Sched.stats;
  drops : int;
  ip_dropped : int;
  segments : int;
  retransmits : int;
  resets : int;
  not_found : int;
  fallbacks : int;
  fc : Cache_stats.t;
  fc_degraded : int;
  bc : Cache_stats.t;
  reclaims : int;
  released : int;
}

let snapshot f =
  let m = f.server.Host.machine in
  let clock = m.Machine.clock in
  let sim = Sim.stats m.Machine.sim in
  let tcp_s = Tcp.stats f.server.Host.tcp and tcp_c = Tcp.stats f.client.Host.tcp in
  let ip_dropped h = (Ip.stats h.Host.ip).Ip.dropped in
  let http = Option.map Http.stats f.http in
  {
    traps =
      Array.fold_left
        (fun acc cpu -> acc + (Cpu.trap_stats cpu).Cpu.entries) 0 m.Machine.cpus;
    intr = Intr.delivered m.Machine.intr;
    ipis = Intr.ipis_sent m.Machine.intr;
    now = Clock.now clock;
    idle = Clock.idle_cycles clock;
    disk_reads = (match f.disk with Some d -> Disk_dev.reads d | None -> 0);
    disk_writes = (match f.disk with Some d -> Disk_dev.writes d | None -> 0);
    fired = sim.Sim.fired;
    cancelled = sim.Sim.cancelled;
    pool_hits = sim.Sim.pool_hits;
    pool_misses = sim.Sim.pool_misses;
    disp = dispatcher_stats f;
    sched = Sched.stats f.server.Host.sched;
    drops = Netif.drops f.server_nic + Netif.drops f.client_nic;
    ip_dropped = ip_dropped f.server + ip_dropped f.client;
    segments = tcp_s.Tcp.segments_sent + tcp_s.Tcp.segments_received;
    retransmits = tcp_s.Tcp.retransmits + tcp_c.Tcp.retransmits;
    resets = tcp_s.Tcp.resets + tcp_c.Tcp.resets;
    not_found = (match http with Some s -> s.Http.not_found | None -> 0);
    fallbacks = (match http with Some s -> s.Http.fallbacks | None -> 0);
    fc = (match f.file_cache with Some c -> File_cache.stats c | None -> Cache_stats.zero);
    fc_degraded = (match f.file_cache with Some c -> File_cache.degraded c | None -> 0);
    bc = (match f.block_cache with Some c -> Block_cache.stats c | None -> Cache_stats.zero);
    reclaims = Phys_addr.reclaims f.server.Host.phys;
    released = (match f.pageout with Some p -> Pageout.released p | None -> 0);
  }

let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let hit_frac (a : Cache_stats.t) (b : Cache_stats.t) =
  frac (b.Cache_stats.hits - a.Cache_stats.hits)
    (Cache_stats.lookups b - Cache_stats.lookups a)

(* The per-layer metrics over the phase [a]..[b] of [ops] operations.
   [udp_lost], [hog_oom] and [gen_late_p99_us] (how late the open-loop
   generator sent) are counted by the workload itself. *)
let metrics ?(udp_lost = 0) ?(hog_oom = 0) ?(gen_late_p99_us = 0.) ~ops a b =
  let per n = frac n ops in
  let d f = f b - f a in
  let sched = [
    ("sched.switches_per_op", per (b.sched.Sched.switches - a.sched.Sched.switches));
    ("sched.steals_per_op", per (b.sched.Sched.steals - a.sched.Sched.steals));
    ("sched.ipi_wakeups_per_op",
     per (b.sched.Sched.ipi_wakeups - a.sched.Sched.ipi_wakeups));
    ("sched.redundant_unblocks_per_op",
     per (b.sched.Sched.redundant_unblocks - a.sched.Sched.redundant_unblocks));
    ("sched.preemptions_per_op",
     per (b.sched.Sched.preemptions - a.sched.Sched.preemptions));
  ] in
  let disp =
    List.concat
      (List.map2
         (fun name ((x : Dispatcher.stats), (y : Dispatcher.stats)) ->
            let d f = f y - f x in
            let raises = d (fun s -> s.Dispatcher.raises) in
            let k s = "dispatcher." ^ name ^ "." ^ s in
            [ (k "raises_per_op", per raises);
              (k "trusted_frac", frac (d (fun s -> s.Dispatcher.trusted_fast)) raises);
              (k "fast_frac", frac (d (fun s -> s.Dispatcher.fast_path)) raises);
              (k "guard_rejections_per_op",
               per (d (fun s -> s.Dispatcher.guard_rejections)));
              (k "aborted", float_of_int (d (fun s -> s.Dispatcher.aborted))) ])
         event_names (List.combine a.disp b.disp)) in
  [
    ("machine.traps_per_op", per (d (fun s -> s.traps)));
    ("machine.intr_per_op", per (d (fun s -> s.intr)));
    ("machine.ipis_per_op", per (d (fun s -> s.ipis)));
    ("machine.busy_frac",
     frac (d (fun s -> s.now - s.idle)) (d (fun s -> s.now)));
    ("machine.disk_reads_per_op", per (d (fun s -> s.disk_reads)));
    ("machine.disk_writes_per_op", per (d (fun s -> s.disk_writes)));
    ("sim.events_per_op", per (d (fun s -> s.fired)));
    ("sim.cancelled_per_op", per (d (fun s -> s.cancelled)));
    ("sim.pool_miss_frac",
     frac (d (fun s -> s.pool_misses))
       (d (fun s -> s.pool_misses + s.pool_hits)));
  ]
  @ disp @ sched
  @ [
    ("netif.drops", float_of_int (d (fun s -> s.drops)));
    ("ip.dropped", float_of_int (d (fun s -> s.ip_dropped)));
    ("udp.lost", float_of_int udp_lost);
    ("tcp.segments_per_op", per (d (fun s -> s.segments)));
    ("tcp.retransmits", float_of_int (d (fun s -> s.retransmits)));
    ("tcp.resets", float_of_int (d (fun s -> s.resets)));
    ("http.not_found", float_of_int (d (fun s -> s.not_found)));
    ("http.fallbacks", float_of_int (d (fun s -> s.fallbacks)));
    ("file_cache.hit_frac", hit_frac a.fc b.fc);
    ("file_cache.degraded", float_of_int (d (fun s -> s.fc_degraded)));
    ("block_cache.hit_frac", hit_frac a.bc b.bc);
    ("vm.reclaims_per_op", per (d (fun s -> s.reclaims)));
    ("vm.pageout_released", float_of_int (d (fun s -> s.released)));
    ("vm.hog_oom", float_of_int hog_oom);
    ("gen.late_p99_us", gen_late_p99_us);
  ]
