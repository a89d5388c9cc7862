(* Unit and property tests for the kernel data structures. *)

open Spin_dstruct

open Alcotest

(* ------------------------------------------------------------------ *)
(* Dllist                                                             *)
(* ------------------------------------------------------------------ *)

let test_dllist_basic () =
  let l = Dllist.create () in
  check bool "empty" true (Dllist.is_empty l);
  let _ = Dllist.push_back l 1 in
  let _ = Dllist.push_back l 2 in
  let _ = Dllist.push_front l 0 in
  check (list int) "order" [ 0; 1; 2 ] (Dllist.to_list l);
  check int "length" 3 (Dllist.length l);
  check (option int) "pop_front" (Some 0) (Dllist.pop_front l);
  check (option int) "pop_back" (Some 2) (Dllist.pop_back l);
  check (option int) "pop_front 2" (Some 1) (Dllist.pop_front l);
  check (option int) "drained" None (Dllist.pop_front l);
  check bool "empty again" true (Dllist.is_empty l)

let test_dllist_remove_middle () =
  let l = Dllist.create () in
  let _a = Dllist.push_back l 'a' in
  let b = Dllist.push_back l 'b' in
  let _c = Dllist.push_back l 'c' in
  Dllist.remove l b;
  check (list char) "b removed" [ 'a'; 'c' ] (Dllist.to_list l);
  check bool "unlinked" false (Dllist.is_linked b);
  Dllist.remove l b;                       (* double remove is a no-op *)
  check int "length stable" 2 (Dllist.length l)

let test_dllist_remove_ends () =
  let l = Dllist.create () in
  let a = Dllist.push_back l 1 in
  let b = Dllist.push_back l 2 in
  Dllist.remove l a;
  check (list int) "head removed" [ 2 ] (Dllist.to_list l);
  Dllist.remove l b;
  check bool "now empty" true (Dllist.is_empty l);
  let c = Dllist.push_back l 3 in
  check (list int) "reusable after drain" [ 3 ] (Dllist.to_list l);
  Dllist.remove l c

let test_dllist_foreign_node () =
  let l1 = Dllist.create () and l2 = Dllist.create () in
  let n = Dllist.push_back l1 1 in
  Alcotest.check_raises "foreign node rejected"
    (Invalid_argument "Dllist.remove: node from another list")
    (fun () -> Dllist.remove l2 n)

let test_dllist_iter_fold () =
  let l = Dllist.create () in
  List.iter (fun v -> ignore (Dllist.push_back l v)) [ 1; 2; 3; 4 ];
  check int "fold sum" 10 (Dllist.fold ( + ) 0 l);
  check bool "exists" true (Dllist.exists (fun v -> v = 3) l);
  check (option int) "find" (Some 2) (Dllist.find (fun v -> v mod 2 = 0) l);
  Dllist.clear l;
  check bool "cleared" true (Dllist.is_empty l)

let prop_dllist_mirrors_list =
  (* A random sequence of queue operations matches a list model. *)
  QCheck2.Test.make ~name:"dllist mirrors list model" ~count:300
    QCheck2.Gen.(list (pair bool small_int))
    (fun ops ->
      let l = Dllist.create () in
      let model = ref [] in
      List.iter
        (fun (front, v) ->
          if front then begin
            ignore (Dllist.push_front l v);
            model := v :: !model
          end else begin
            ignore (Dllist.push_back l v);
            model := !model @ [ v ]
          end)
        ops;
      Dllist.to_list l = !model && Dllist.length l = List.length !model)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                             *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:compare in
  List.iter (fun v -> ignore (Pqueue.add q v)) [ 5; 1; 4; 1; 3 ];
  let drained = List.init 5 (fun _ -> Option.get (Pqueue.pop q)) in
  check (list int) "sorted" [ 1; 1; 3; 4; 5 ] drained;
  check bool "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  (* Equal keys pop in insertion order. *)
  let q = Pqueue.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter (fun v -> ignore (Pqueue.add q v)) [ (1, "x"); (1, "y"); (1, "z") ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (list string) "fifo" [ "x"; "y"; "z" ] order

let test_pqueue_remove () =
  let q = Pqueue.create ~cmp:compare in
  let _e1 = Pqueue.add q 1 in
  let e2 = Pqueue.add q 2 in
  let _e3 = Pqueue.add q 3 in
  Pqueue.remove q e2;
  check bool "mem after remove" false (Pqueue.mem e2);
  Pqueue.remove q e2;                     (* idempotent *)
  check int "size" 2 (Pqueue.size q);
  check (option int) "min survives" (Some 1) (Pqueue.pop q);
  check (option int) "max survives" (Some 3) (Pqueue.pop q)

let test_pqueue_remove_min () =
  let q = Pqueue.create ~cmp:compare in
  let e1 = Pqueue.add q 1 in
  let _ = Pqueue.add q 2 in
  Pqueue.remove q e1;
  check (option int) "heap repaired" (Some 2) (Pqueue.peek q)

let prop_pqueue_sorts =
  QCheck2.Test.make ~name:"pqueue drains sorted" ~count:300
    QCheck2.Gen.(list small_int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (fun v -> ignore (Pqueue.add q v)) xs;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some v -> drain (v :: acc) in
      drain [] = List.sort compare xs)

let prop_pqueue_remove_subset =
  QCheck2.Test.make ~name:"pqueue removal leaves the complement" ~count:200
    QCheck2.Gen.(list (pair small_int bool))
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      let entries = List.map (fun (v, kill) -> (Pqueue.add q v, v, kill)) xs in
      List.iter (fun (e, _, kill) -> if kill then Pqueue.remove q e) entries;
      let expect =
        List.filter_map (fun (_, v, kill) -> if kill then None else Some v) entries
        |> List.sort compare in
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some v -> drain (v :: acc) in
      drain [] = expect)

(* Regression (pre-timer-wheel bug): [pop]/[delete_at]/[clear] left the
   vacated slot — and [grow] filled padding slots — pointing at live
   entries, pinning long-gone values against the GC. The queue must
   release a value as soon as it leaves. *)
let weak_live w =
  Gc.full_major ();
  Gc.full_major ();
  let n = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr n
  done;
  !n

let pq_fill q w n =
  for i = 0 to n - 1 do
    let v = Bytes.make 32 (Char.chr (65 + (i mod 26))) in
    Weak.set w i (Some v);
    ignore (Pqueue.add q v)
  done

let test_pqueue_pop_releases () =
  let q = Pqueue.create ~cmp:compare in
  let w = Weak.create 4 in
  pq_fill q w 4;
  for _ = 1 to 4 do ignore (Pqueue.pop q) done;
  check int "popped values collectable" 0 (weak_live w);
  ignore (Sys.opaque_identity q)           (* keep the queue itself live *)

let test_pqueue_clear_releases () =
  let q = Pqueue.create ~cmp:compare in
  let w = Weak.create 6 in
  pq_fill q w 6;
  Pqueue.clear q;
  check int "cleared values collectable" 0 (weak_live w);
  ignore (Sys.opaque_identity q)

let test_pqueue_grow_releases () =
  (* 20 adds force two array growths; the padding slots of the grown
     arrays must not alias a live entry. *)
  let q = Pqueue.create ~cmp:compare in
  let w = Weak.create 20 in
  pq_fill q w 20;
  for _ = 1 to 20 do ignore (Pqueue.pop q) done;
  check int "no pin via grow padding" 0 (weak_live w);
  ignore (Sys.opaque_identity q)

let test_pqueue_remove_releases () =
  let q = Pqueue.create ~cmp:compare in
  let w = Weak.create 8 in
  let entries = ref [] in
  for i = 0 to 7 do
    let v = Bytes.make 32 (Char.chr (65 + i)) in
    Weak.set w i (Some v);
    entries := Pqueue.add q v :: !entries
  done;
  List.iter (fun e -> Pqueue.remove q e) !entries;
  entries := [];
  (* An entry handle pins its value (it is the value's box), but once
     the handles are dropped the queue's own arrays must not. *)
  check int "removed values collectable" 0 (weak_live w);
  ignore (Sys.opaque_identity q)

(* ------------------------------------------------------------------ *)
(* Timer_wheel                                                        *)
(* ------------------------------------------------------------------ *)

let drain_wheel w =
  let rec go acc =
    match Timer_wheel.pop_due w with
    | None -> List.rev acc
    | Some v -> go (v :: acc) in
  go []

let test_wheel_fire_order () =
  let w = Timer_wheel.create ~dummy:0 () in
  ignore (Timer_wheel.add w ~time:50 1);
  ignore (Timer_wheel.add w ~time:10 2);
  ignore (Timer_wheel.add w ~time:50 3);   (* ties with 1: FIFO *)
  ignore (Timer_wheel.add w ~time:30 4);
  check int "live" 4 (Timer_wheel.size w);
  check (option int) "earliest" (Some 10) (Timer_wheel.next_deadline w);
  Timer_wheel.advance w 9;
  check (option int) "not due yet" None (Timer_wheel.pop_due w);
  Timer_wheel.advance w 100;
  check (list int) "deadline order, FIFO ties" [ 2; 4; 1; 3 ] (drain_wheel w);
  check int "drained" 0 (Timer_wheel.size w)

let test_wheel_cancel () =
  let w = Timer_wheel.create ~dummy:0 () in
  let h = Timer_wheel.add w ~time:100 1 in
  let h2 = Timer_wheel.add w ~time:100 2 in
  check bool "pending" true (Timer_wheel.is_pending h);
  check bool "cancel succeeds" true (Timer_wheel.cancel w h);
  check bool "re-cancel is a no-op" false (Timer_wheel.cancel w h);
  check bool "no longer pending" false (Timer_wheel.is_pending h);
  check int "unlinked immediately" 1 (Timer_wheel.size w);
  Timer_wheel.advance w 200;
  check (list int) "survivor fires" [ 2 ] (drain_wheel w);
  check bool "cancel after fire" false (Timer_wheel.cancel w h2)

let test_wheel_stale_handle_aba () =
  (* A fired handle whose entry record has been recycled for a new
     event must not cancel the new event. *)
  let w = Timer_wheel.create ~dummy:0 () in
  let h = Timer_wheel.add w ~time:10 1 in
  Timer_wheel.advance w 10;
  check (list int) "first fires" [ 1 ] (drain_wheel w);
  ignore (Timer_wheel.add w ~time:20 2);   (* recycles h's record *)
  check int "record recycled" 1 (Timer_wheel.pool_stats w).Timer_wheel.pool_hits;
  check bool "stale cancel refused" false (Timer_wheel.cancel w h);
  check int "new entry untouched" 1 (Timer_wheel.size w);
  Timer_wheel.advance w 20;
  check (list int) "new entry fires" [ 2 ] (drain_wheel w)

let test_wheel_past_deadline_clamps () =
  let w = Timer_wheel.create ~start:1000 ~dummy:0 () in
  ignore (Timer_wheel.add w ~time:10 1);
  check (option int) "clamped to now" (Some 1000) (Timer_wheel.next_deadline w);
  check (option int) "due without advancing" (Some 1) (Timer_wheel.pop_due w)

let test_wheel_cascade_boundaries () =
  (* Deadlines straddling each level's window edge (2^8, 2^16, 2^24),
     advanced across in uneven steps, all fire exactly once, in order,
     never early. *)
  let w = Timer_wheel.create ~dummy:(-1) () in
  let times =
    [ 255; 256; 257; 511; 65535; 65536; 65537;
      (1 lsl 24) - 1; 1 lsl 24; (1 lsl 24) + 1 ] in
  List.iteri (fun i tm -> ignore (Timer_wheel.add w ~time:tm i)) times;
  let fired = ref [] in
  let step target =
    Timer_wheel.advance w target;
    List.iter
      (fun i ->
        check bool "never fires early" true (List.nth times i <= target);
        fired := i :: !fired)
      (drain_wheel w) in
  List.iter step [ 100; 256; 300; 70000; (1 lsl 24) + 5 ];
  let expect =
    List.sort compare (List.mapi (fun i tm -> (tm, i)) times)
    |> List.map snd in
  check (list int) "all fired in deadline order" expect (List.rev !fired)

let test_wheel_overflow_far_future () =
  let w = Timer_wheel.create ~dummy:0 () in
  let far = (1 lsl 32) + 123 in            (* beyond the wheel's range *)
  let h = Timer_wheel.add w ~time:far 7 in
  ignore (Timer_wheel.add w ~time:100 1);
  check (option int) "near deadline wins" (Some 100) (Timer_wheel.next_deadline w);
  Timer_wheel.advance w 100;
  check (list int) "near fires" [ 1 ] (drain_wheel w);
  check (option int) "far visible" (Some far) (Timer_wheel.next_deadline w);
  Timer_wheel.advance w (1 lsl 32);        (* migrates out of overflow *)
  check (list int) "nothing due yet" [] (drain_wheel w);
  check int "still live" 1 (Timer_wheel.size w);
  Timer_wheel.advance w far;
  check (list int) "far fires on time" [ 7 ] (drain_wheel w);
  check bool "spent handle" false (Timer_wheel.cancel w h);
  let h2 = Timer_wheel.add w ~time:(Timer_wheel.now w + (1 lsl 33)) 9 in
  check bool "overflow entry cancellable" true (Timer_wheel.cancel w h2);
  check int "empty" 0 (Timer_wheel.size w)

let test_wheel_pool_recycles () =
  let w = Timer_wheel.create ~dummy:0 () in
  for i = 1 to 100 do ignore (Timer_wheel.add w ~time:i i) done;
  Timer_wheel.advance w 100;
  ignore (drain_wheel w);
  let p1 = Timer_wheel.pool_stats w in
  check int "first round allocates" 100 p1.Timer_wheel.pool_misses;
  for i = 101 to 200 do ignore (Timer_wheel.add w ~time:i i) done;
  let p2 = Timer_wheel.pool_stats w in
  check int "second round recycles" 100
    (p2.Timer_wheel.pool_hits - p1.Timer_wheel.pool_hits);
  check int "no fresh allocations" p1.Timer_wheel.pool_misses
    p2.Timer_wheel.pool_misses

(* The equivalence property the engine swap rests on: against a binary
   heap keyed by (deadline, insertion-seq) — exactly the old [Sim]
   queue — a random interleaving of adds (all levels and the overflow),
   cancels, and uneven advances fires the same events in the same
   order. *)
let prop_wheel_matches_heap =
  QCheck2.Test.make ~name:"timer wheel fires like a FIFO-tie heap" ~count:150
    QCheck2.Gen.(list_size (int_range 1 60)
                   (pair (int_range 0 5) (int_range 0 2000)))
    (fun ops ->
      let w = Timer_wheel.create ~dummy:(-1) () in
      let cmp (t1, s1, _) (t2, s2, _) = compare (t1, s1) (t2, s2) in
      let model = Pqueue.create ~cmp in
      let seq = ref 0 in
      let outstanding = ref [] in
      let next_id = ref 0 in
      let fired_w = ref [] and fired_m = ref [] in
      let agree = ref true in
      let drain_due now =
        List.iter (fun v -> fired_w := v :: !fired_w) (drain_wheel w);
        let rec go () =
          match Pqueue.peek model with
          | Some (t, _, v) when t <= now ->
            ignore (Pqueue.pop model);
            fired_m := v :: !fired_m;
            go ()
          | _ -> () in
        go () in
      let add delta =
        let time = Timer_wheel.now w + delta in
        let v = !next_id in
        incr next_id;
        let h = Timer_wheel.add w ~time v in
        let e = Pqueue.add model (time, !seq, v) in
        incr seq;
        outstanding := (h, e) :: !outstanding in
      List.iter
        (fun (tag, n) ->
          match tag with
          | 0 -> add n                         (* level 0 *)
          | 1 -> add (n * 4096)                (* levels 1-2 *)
          | 2 -> add (n * (1 lsl 23))          (* level 3 and overflow *)
          | 3 | 4 ->
            let target =
              Timer_wheel.now w + (if tag = 3 then n else n * 65536) in
            Timer_wheel.advance w target;
            drain_due target
          | _ ->
            (match !outstanding with
             | [] -> ()
             | hs ->
               let k = n mod List.length hs in
               let h, e = List.nth hs k in
               let cw = Timer_wheel.cancel w h in
               let cm = Pqueue.mem e in
               if cm then Pqueue.remove model e;
               if cw <> cm then agree := false;
               outstanding := List.filteri (fun i _ -> i <> k) hs))
        ops;
      let rounds = ref 0 in
      while (Timer_wheel.size w > 0 || not (Pqueue.is_empty model))
            && !rounds < 64 do
        incr rounds;
        let target = Timer_wheel.now w + (1 lsl 30) in
        Timer_wheel.advance w target;
        drain_due target
      done;
      !agree && !rounds < 64
      && List.rev !fired_w = List.rev !fired_m
      && Timer_wheel.size w = 0)

(* ------------------------------------------------------------------ *)
(* Ring                                                               *)
(* ------------------------------------------------------------------ *)

let test_ring_bounds () =
  let r = Ring.create 2 in
  check bool "push 1" true (Ring.push r 1);
  check bool "push 2" true (Ring.push r 2);
  check bool "full rejects" false (Ring.push r 3);
  check (option int) "fifo pop" (Some 1) (Ring.pop r);
  check bool "room again" true (Ring.push r 4);
  check (option int) "pop 2" (Some 2) (Ring.pop r);
  check (option int) "pop 4" (Some 4) (Ring.pop r);
  check (option int) "drained" None (Ring.pop r)

let test_ring_wraparound () =
  let r = Ring.create 3 in
  for round = 0 to 9 do
    check bool "push" true (Ring.push r round);
    check (option int) "pop" (Some round) (Ring.pop r)
  done;
  check bool "empty at end" true (Ring.is_empty r)

let test_ring_iter () =
  let r = Ring.create 4 in
  List.iter (fun v -> ignore (Ring.push r v)) [ 1; 2; 3 ];
  let acc = ref [] in
  Ring.iter (fun v -> acc := v :: !acc) r;
  check (list int) "oldest first" [ 1; 2; 3 ] (List.rev !acc);
  Ring.clear r;
  check int "cleared" 0 (Ring.length r)

let test_ring_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create 0))

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check int "initial count" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check bool "mem 63" true (Bitset.mem b 63);
  check bool "not mem 50" false (Bitset.mem b 50);
  check int "count" 3 (Bitset.count b);
  Bitset.set b 63;                        (* idempotent *)
  check int "count stable" 3 (Bitset.count b);
  Bitset.clear b 63;
  check bool "cleared" false (Bitset.mem b 63);
  check int "count after clear" 2 (Bitset.count b)

let test_bitset_find () =
  let b = Bitset.create 8 in
  Bitset.set b 0; Bitset.set b 1; Bitset.set b 2;
  check (option int) "first clear" (Some 3) (Bitset.find_first_clear b);
  check (option int) "first set" (Some 0) (Bitset.find_first_set b);
  Bitset.fill b;
  check (option int) "none clear" None (Bitset.find_first_clear b);
  Bitset.reset b;
  check (option int) "none set" None (Bitset.find_first_set b)

let test_bitset_run () =
  let b = Bitset.create 16 in
  Bitset.set b 2; Bitset.set b 6;
  (* clear runs: [0,1], [3,4,5], [7..15] *)
  check (option int) "run of 2" (Some 0) (Bitset.find_clear_run b 2);
  check (option int) "run of 3" (Some 3) (Bitset.find_clear_run b 3);
  check (option int) "run of 9" (Some 7) (Bitset.find_clear_run b 9);
  check (option int) "run too long" None (Bitset.find_clear_run b 10)

let test_bitset_range_check () =
  let b = Bitset.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.set b 4)

(* ------------------------------------------------------------------ *)
(* Lru                                                                *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction_order () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");                (* a is now MRU *)
  Lru.add c "c" 3;                        (* evicts b *)
  check (list string) "evicted lru" [ "b" ] !evicted;
  check bool "a kept" true (Lru.mem c "a");
  check bool "c kept" true (Lru.mem c "c")

let test_lru_peek_does_not_touch () =
  let evicted = ref [] in
  let c = Lru.create ~on_evict:(fun k _ -> evicted := k :: !evicted) ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check (option int) "peek a" (Some 1) (Lru.peek c "a");
  Lru.add c "c" 3;                        (* peek left a as LRU *)
  check (list string) "a evicted" [ "a" ] !evicted

let test_lru_replace_and_remove () =
  let c = Lru.create ~capacity:4 () in
  Lru.add c 1 "one";
  Lru.add c 1 "uno";
  check (option string) "replaced" (Some "uno") (Lru.find c 1);
  check int "no duplicate" 1 (Lru.length c);
  Lru.remove c 1;
  check (option string) "removed" None (Lru.find c 1);
  Lru.remove c 1                          (* idempotent *)

let test_lru_replace_evicts_old_value () =
  let evicted = ref [] in
  let c =
    Lru.create ~on_evict:(fun k v -> evicted := (k, v) :: !evicted)
      ~capacity:4 () in
  Lru.add c "a" 1;
  Lru.add c "a" 2;
  check (list (pair string int)) "old value evicted once" [ ("a", 1) ]
    !evicted;
  Lru.add c "a" 2;                        (* the same value stays *)
  check int "no callback for the same value" 1 (List.length !evicted);
  check (option int) "new value bound" (Some 2) (Lru.peek c "a")

let test_lru_coldest () =
  let c = Lru.create ~capacity:4 () in
  check (option (pair string int)) "empty" None (Lru.coldest c);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  ignore (Lru.find c "a");
  check (option (pair string int)) "least recent" (Some ("b", 2))
    (Lru.coldest c);
  check (option (pair string int)) "coldest does not touch" (Some ("b", 2))
    (Lru.coldest c)

let prop_lru_never_exceeds_capacity =
  QCheck2.Test.make ~name:"lru holds at most capacity" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap () in
      List.iter (fun k -> Lru.add c k (k * 10)) keys;
      Lru.length c <= cap)

(* ------------------------------------------------------------------ *)
(* Idtable                                                            *)
(* ------------------------------------------------------------------ *)

let test_idtable_roundtrip () =
  let t = Idtable.create () in
  let i = Idtable.insert t "alpha" in
  let j = Idtable.insert t "beta" in
  check bool "distinct" true (i <> j);
  check (option string) "lookup i" (Some "alpha") (Idtable.lookup t i);
  check (option string) "lookup j" (Some "beta") (Idtable.lookup t j)

let test_idtable_stale_index () =
  let t = Idtable.create () in
  let i = Idtable.insert t 42 in
  Idtable.remove t i;
  check (option int) "stale" None (Idtable.lookup t i);
  check (option int) "negative" None (Idtable.lookup t (-1));
  check (option int) "way out" None (Idtable.lookup t 9999);
  check int "live" 0 (Idtable.length t)

let test_idtable_slot_reuse () =
  let t = Idtable.create () in
  let i = Idtable.insert t "x" in
  Idtable.remove t i;
  let j = Idtable.insert t "y" in
  check int "slot reused" i j;
  check (option string) "new value" (Some "y") (Idtable.lookup t j)

let prop_idtable_consistent =
  QCheck2.Test.make ~name:"idtable lookup matches inserts" ~count:200
    QCheck2.Gen.(list small_int)
    (fun xs ->
      let t = Idtable.create () in
      let ids = List.map (fun v -> (Idtable.insert t v, v)) xs in
      List.for_all (fun (i, v) -> Idtable.lookup t i = Some v) ids
      && Idtable.length t = List.length xs)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "spin_dstruct"
    [
      ( "dllist",
        [
          Alcotest.test_case "basic push/pop" `Quick test_dllist_basic;
          Alcotest.test_case "remove middle node" `Quick test_dllist_remove_middle;
          Alcotest.test_case "remove end nodes" `Quick test_dllist_remove_ends;
          Alcotest.test_case "foreign node rejected" `Quick test_dllist_foreign_node;
          Alcotest.test_case "iter/fold/clear" `Quick test_dllist_iter_fold;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pops in order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "entry removal" `Quick test_pqueue_remove;
          Alcotest.test_case "remove current min" `Quick test_pqueue_remove_min;
          Alcotest.test_case "pop releases values" `Quick test_pqueue_pop_releases;
          Alcotest.test_case "clear releases values" `Quick test_pqueue_clear_releases;
          Alcotest.test_case "grow padding releases values" `Quick
            test_pqueue_grow_releases;
          Alcotest.test_case "remove releases values" `Quick
            test_pqueue_remove_releases;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "fire order, FIFO ties" `Quick test_wheel_fire_order;
          Alcotest.test_case "cancel unlinks eagerly" `Quick test_wheel_cancel;
          Alcotest.test_case "stale handle is ABA-safe" `Quick
            test_wheel_stale_handle_aba;
          Alcotest.test_case "past deadline clamps" `Quick
            test_wheel_past_deadline_clamps;
          Alcotest.test_case "cascade across level boundaries" `Quick
            test_wheel_cascade_boundaries;
          Alcotest.test_case "far-future overflow" `Quick
            test_wheel_overflow_far_future;
          Alcotest.test_case "pool recycles records" `Quick
            test_wheel_pool_recycles;
        ] );
      ( "ring",
        [
          Alcotest.test_case "bounded push/pop" `Quick test_ring_bounds;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "iter oldest-first" `Quick test_ring_iter;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "set/clear/count" `Quick test_bitset_basic;
          Alcotest.test_case "find first" `Quick test_bitset_find;
          Alcotest.test_case "clear runs" `Quick test_bitset_run;
          Alcotest.test_case "range check" `Quick test_bitset_range_check;
        ] );
      ( "lru",
        [
          Alcotest.test_case "evicts least recent" `Quick test_lru_eviction_order;
          Alcotest.test_case "peek preserves order" `Quick test_lru_peek_does_not_touch;
          Alcotest.test_case "replace and remove" `Quick test_lru_replace_and_remove;
          Alcotest.test_case "replace evicts the old value" `Quick
            test_lru_replace_evicts_old_value;
          Alcotest.test_case "coldest" `Quick test_lru_coldest;
        ] );
      ( "idtable",
        [
          Alcotest.test_case "roundtrip" `Quick test_idtable_roundtrip;
          Alcotest.test_case "stale index safe" `Quick test_idtable_stale_index;
          Alcotest.test_case "slot reuse" `Quick test_idtable_slot_reuse;
        ] );
      qsuite "properties"
        [
          prop_dllist_mirrors_list;
          prop_pqueue_sorts;
          prop_pqueue_remove_subset;
          prop_wheel_matches_heap;
          prop_lru_never_exceeds_capacity;
          prop_idtable_consistent;
        ];
    ]
