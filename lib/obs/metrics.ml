(* Named counters and histograms with labelled cardinality.

   A registry maps (metric name, canonical label set) to a mutable cell.
   Hot paths resolve a handle once ({!counter} etc.) and then pay one
   unboxed mutation per event; occasional recorders use the one-shot
   [incr_c]/[add_c]/[observe_h] conveniences, which look the cell
   up each time.

   Everything is deterministic except wall-clock observations made by the
   callers: two identical runs produce identical counter values, which is
   what the test suite pins down. *)

type labels = (string * string) list

(* canonical order so [("a","1");("b","2")] and its permutation are the
   same time series *)
let canon (labels : labels) : labels =
  List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) labels

type counter = int ref

(* Histograms keep a bounded, deterministically decimated sample buffer
   for quantile estimates: the first [sample_cap] observations are stored
   exactly; past that the (sorted) buffer is halved and the recording
   stride doubled, so the kept samples remain an evenly spaced sketch of
   the order statistics.  No randomness: two identical observation
   streams yield identical quantiles, which the determinism tests pin. *)
let sample_cap = 512

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  samples : float array;  (* length [sample_cap] *)
  mutable kept : int;  (* samples in use *)
  mutable stride : int;  (* record one observation in [stride] *)
  mutable skip : int;  (* observations left before the next record *)
}

type cell_value = Counter of counter | Hist of histogram

type cell = { name : string; labels : labels; v : cell_value }

type t = { cells : (string * labels, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Hist _ -> "histogram"

let get_cell t name labels mk =
  let labels = canon labels in
  let key = (name, labels) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { name; labels; v = mk () } in
      Hashtbl.add t.cells key c;
      c

let kind_error name cell wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name cell)
       wanted)

let counter t ?(labels = []) name : counter =
  match (get_cell t name labels (fun () -> Counter (ref 0))).v with
  | Counter r -> r
  | v -> kind_error name v "counter"

let fresh_hist () =
  Hist
    {
      count = 0;
      sum = 0.;
      minv = infinity;
      maxv = neg_infinity;
      samples = Array.make sample_cap 0.;
      kept = 0;
      stride = 1;
      skip = 0;
    }

let histogram t ?(labels = []) name : histogram =
  match (get_cell t name labels fresh_hist).v with
  | Hist h -> h
  | v -> kind_error name v "histogram"

(* handle operations *)
let inc (c : counter) = incr c
let add (c : counter) n = c := !c + n
let counter_value (c : counter) = !c

let observe (h : histogram) x =
  h.count <- h.count + 1;
  h.sum <- h.sum +. x;
  if x < h.minv then h.minv <- x;
  if x > h.maxv then h.maxv <- x;
  if h.skip > 0 then h.skip <- h.skip - 1
  else begin
    if h.kept = sample_cap then begin
      let sorted = Array.sub h.samples 0 h.kept in
      Array.sort compare sorted;
      let half = sample_cap / 2 in
      for i = 0 to half - 1 do
        h.samples.(i) <- sorted.((2 * i) + 1)
      done;
      h.kept <- half;
      h.stride <- h.stride * 2
    end;
    h.samples.(h.kept) <- x;
    h.kept <- h.kept + 1;
    h.skip <- h.stride - 1
  end

(* one-shot conveniences *)
let incr_c t ?labels name = inc (counter t ?labels name)
let add_c t ?labels name n = add (counter t ?labels name) n
let observe_h t ?labels name x = observe (histogram t ?labels name) x

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type value = VCounter of int | VHistogram of hist_stats

type sample = { name : string; labels : labels; value : value }

(* nearest-rank quantile over a sorted array: exact while the stream fits
   the sample buffer, an evenly decimated estimate afterwards *)
let quantile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 (rank - 1)))

let hist_quantiles (h : histogram) =
  let sorted = Array.sub h.samples 0 h.kept in
  Array.sort compare sorted;
  ( quantile_of_sorted sorted 0.50,
    quantile_of_sorted sorted 0.95,
    quantile_of_sorted sorted 0.99 )

let value_of_cell = function
  | Counter r -> VCounter !r
  | Hist h ->
      if h.count = 0 then
        VHistogram
          { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.;
            p99 = 0. }
      else
        let p50, p95, p99 = hist_quantiles h in
        VHistogram
          { count = h.count; sum = h.sum; min = h.minv; max = h.maxv;
            p50; p95; p99 }

let snapshot t : sample list =
  Hashtbl.fold
    (fun _ (c : cell) acc ->
      { name = c.name; labels = c.labels; value = value_of_cell c.v } :: acc)
    t.cells []
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let find t ?(labels = []) name : value option =
  Option.map
    (fun c -> value_of_cell c.v)
    (Hashtbl.find_opt t.cells (name, canon labels))

let names t : string list =
  Hashtbl.fold (fun (n, _) _ acc -> n :: acc) t.cells []
  |> List.sort_uniq compare

(** Sum of a counter over all its label sets. *)
let sum_counters t name : int =
  Hashtbl.fold
    (fun (n, _) c acc ->
      match c.v with Counter r when n = name -> acc + !r | _ -> acc)
    t.cells 0

(** Zero every cell in place.  Handles resolved before the reset stay
    valid — they point at the same cells. *)
let reset t =
  Hashtbl.iter
    (fun _ c ->
      match c.v with
      | Counter r -> r := 0
      | Hist h ->
          h.count <- 0;
          h.sum <- 0.;
          h.minv <- infinity;
          h.maxv <- neg_infinity;
          h.kept <- 0;
          h.stride <- 1;
          h.skip <- 0)
    t.cells
