(* Tables 1 and 7: component and extension sizes.

   The paper reports source lines and object bytes of SPIN's five
   components and of its extensions; we report the same quantities for
   this reproduction, scanning the source tree at run time. Object
   sizes are estimated from source volume (32 text bytes and 11 data
   bytes per line, roughly the paper's own text/line ratio). *)

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "DESIGN.md") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

(* Every .ml and .mli under [dir], subdirectories included (the
   verifier lives in lib/core/ebc/ and counts toward sys). *)
let rec source_files dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
      let path = Filename.concat dir f in
      if Sys.is_directory path then source_files path
      else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
      then [ path ]
      else [])

let count_lines file =
  let ic = open_in file in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> close_in ic);
  !n

let component_lines root dirs =
  List.fold_left
    (fun acc d ->
      List.fold_left (fun acc f -> acc + count_lines f) acc
        (source_files (Filename.concat root d)))
    0 dirs

(* The paper's five components mapped onto this tree. *)
let components = [
  ("sys",  "extensibility, naming, dispatch",  [ "lib/core" ]);
  ("core", "vm, sched, fs, network, kernel",
   [ "lib/vm"; "lib/sched"; "lib/fs"; "lib/net"; "lib/spin" ]);
  ("rt",   "runtime: heap and collector",      [ "lib/kgc" ]);
  ("lib",  "data structures",                  [ "lib/dstruct" ]);
  ("sal",  "machine: MMU, traps, devices",     [ "lib/machine" ]);
]

let paper_table1 = [ ("sys", 1646); ("core", 10866); ("rt", 14216);
                     ("lib", 1234); ("sal", 37690) ]

let table1 () =
  Report.header "Table 1: system component sizes (paper lines vs ours)";
  match find_root (Sys.getcwd ()) with
  | None -> print_endline "  (source tree not found; run from the repo)"
  | Some root ->
    Printf.printf "%-6s %-34s %10s %10s %10s\n"
      "comp" "contents" "paper" "ours" "text(est)";
    let total_p = ref 0 and total_o = ref 0 in
    List.iter
      (fun (name, desc, dirs) ->
        let lines = component_lines root dirs in
        let paper = List.assoc name paper_table1 in
        total_p := !total_p + paper;
        total_o := !total_o + lines;
        Printf.printf "%-6s %-34s %10d %10d %10d\n"
          name desc paper lines (lines * 32))
      components;
    Printf.printf "%-6s %-34s %10d %10d %10d\n" "total" "" !total_p !total_o
      (!total_o * 32)

(* Table 7: extension sizes. Our extensions live inside libraries, so
   we count the specific modules implementing each one. *)
let extensions = [
  ("IPC (cross-AS call ext)", 127, [ "lib/core/extern_ref.ml" ]);
  ("CThreads", 219, [ "lib/sched/cthreads.ml"; "lib/sched/cthreads.mli" ]);
  ("OSF/1 threads", 305, [ "lib/sched/osf_threads.ml"; "lib/sched/osf_threads.mli" ]);
  ("VM workload ext", 263, [ "lib/vm/vm_ext.ml"; "lib/vm/vm_ext.mli" ]);
  ("IP", 744, [ "lib/net/ip.ml"; "lib/net/ip.mli" ]);
  ("UDP", 1046, [ "lib/net/udp.ml"; "lib/net/udp.mli" ]);
  ("TCP", 5077, [ "lib/net/tcp.ml"; "lib/net/tcp.mli" ]);
  ("HTTP", 392, [ "lib/net/http.ml"; "lib/net/http.mli" ]);
  ("Forwarder (TCP+UDP)", 325, [ "lib/net/forward.ml"; "lib/net/forward.mli" ]);
  ("Video client+server", 399, [ "lib/net/video.ml"; "lib/net/video.mli" ]);
]

let table7 () =
  Report.header "Table 7: extension sizes (paper lines vs ours)";
  match find_root (Sys.getcwd ()) with
  | None -> print_endline "  (source tree not found; run from the repo)"
  | Some root ->
    Printf.printf "%-28s %10s %10s %10s\n" "extension" "paper" "ours" "text(est)";
    List.iter
      (fun (name, paper, files) ->
        let lines =
          List.fold_left
            (fun acc f ->
              let path = Filename.concat root f in
              if Sys.file_exists path then acc + count_lines path else acc)
            0 files in
        Printf.printf "%-28s %10d %10d %10d\n" name paper lines (lines * 32))
      extensions
