(* Timing, order statistics, memory readings and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* nearest-rank median: the value at rank ⌈n/2⌉ *)
let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted -> List.nth sorted ((List.length sorted - 1) / 2)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* median and fastest of [reps] timings of [f], in seconds *)
let median_time ~reps f = median (List.init reps (fun _ -> snd (time f)))

let min_time ~reps f = List.fold_left Float.min infinity (List.init reps (fun _ -> snd (time f)))

(* the process's peak resident set (VmHWM), in kB; 0 where /proc is absent *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
              | [] -> acc)
          | _ -> acc)
        0
        (String.split_on_char '\n' status)

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The one line the benchmark's caller reads: the last line of stdout. *)
let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
