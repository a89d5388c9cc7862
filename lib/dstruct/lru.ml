type ('k, 'v) t = {
  capacity : int;
  on_evict : 'k -> 'v -> unit;
  table : ('k, ('k * 'v ref) Dllist.node) Hashtbl.t;
  order : ('k * 'v ref) Dllist.t;     (* front = most recently used *)
}

let create ?(on_evict = fun _ _ -> ()) ~capacity () =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; on_evict; table = Hashtbl.create 64; order = Dllist.create () }

let capacity t = t.capacity

let length t = Hashtbl.length t.table

let touch t node =
  let v = Dllist.value node in
  Dllist.remove t.order node;
  let node' = Dllist.push_front t.order v in
  Hashtbl.replace t.table (fst v) node'

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node ->
    let (_, vref) = Dllist.value node in
    touch t node;
    Some !vref

let peek t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some node -> let (_, vref) = Dllist.value node in Some !vref

let evict_lru t =
  match Dllist.pop_back t.order with
  | None -> ()
  | Some (k, vref) ->
    Hashtbl.remove t.table k;
    t.on_evict k !vref

let add t k v =
  (match Hashtbl.find_opt t.table k with
   | Some node ->
     let (_, vref) = Dllist.value node in
     let old = !vref in
     vref := v;
     touch t node;
     (* The replaced value leaves the cache as surely as an evicted
        one: its owner must get to release it. *)
     if old != v then t.on_evict k old
   | None ->
     let node = Dllist.push_front t.order (k, ref v) in
     Hashtbl.replace t.table k node);
  while Hashtbl.length t.table > t.capacity do evict_lru t done

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some node ->
    Dllist.remove t.order node;
    Hashtbl.remove t.table k

let coldest t =
  match Dllist.peek_back t.order with
  | None -> None
  | Some (k, vref) -> Some (k, !vref)

let mem t k = Hashtbl.mem t.table k

let iter f t = Dllist.iter (fun (k, vref) -> f k !vref) t.order

let clear t =
  Hashtbl.reset t.table;
  Dllist.clear t.order
