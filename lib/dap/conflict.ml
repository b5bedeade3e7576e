(* Conflicts and conflict graphs (Section 2/3).

   Two (static) transactions conflict if their data sets intersect.  The
   conflict graph of an execution interval has transactions as nodes and
   conflict edges; the weaker DAP variants allow contention between
   transactions connected by a path. *)

open Tm_base

(** Static data sets: D(T) is derivable from the transaction's code.  The
    PCL harness registers the declared read/write sets; dynamic workloads
    register the sets actually accessed. *)
type data_sets = (Tid.t * Item.Set.t) list

(** [data_set ds] builds a table of [ds] once and answers every lookup
    from it: apply it to [ds] once, outside the loop that looks up.  The
    first binding of a transaction wins, as with [List.assoc]. *)
let data_set (ds : data_sets) : Tid.t -> Item.Set.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tid, s) -> if not (Hashtbl.mem tbl tid) then Hashtbl.add tbl tid s)
    ds;
  fun tid -> Option.value ~default:Item.Set.empty (Hashtbl.find_opt tbl tid)

(** Dynamic data sets: the items each transaction invoked an operation
    on (Kuznetsov and Ravi's data set), so one aborted at its first access
    still has that item. *)
let of_history (h : Tm_trace.History.t) : data_sets =
  let open Tm_trace in
  let invoked acc = function
    | Event.Inv { op = Event.Read x | Event.Write (x, _); _ } ->
        Item.Set.add x acc
    | _ -> acc
  in
  List.map
    (fun tid ->
      (tid, List.fold_left invoked Item.Set.empty (History.per_txn h tid)))
    (History.txns h)

(** [conflict ds], staged like [data_set]. *)
let conflict (ds : data_sets) : Tid.t -> Tid.t -> bool =
  let data_set = data_set ds in
  fun t1 t2 ->
    (not (Tid.equal t1 t2))
    && not (Item.Set.disjoint (data_set t1) (data_set t2))

(** Adjacency-list conflict graph over the given transactions, with each
    node's connected component labelled on first demand. *)
type graph = {
  nodes : Tid.t list;
  adj : (Tid.t, Tid.t list) Hashtbl.t;
  components : (Tid.t, int) Hashtbl.t Lazy.t;
}

(* Label every node with its component: a search from each node not yet
   labelled labels everything it reaches.  Conflict is symmetric, so what
   a node reaches is its component. *)
let label nodes adj =
  let labels = Hashtbl.create 16 in
  List.iteri
    (fun c t ->
      let rec visit = function
        | [] -> ()
        | t :: rest ->
            if Hashtbl.mem labels t then visit rest
            else begin
              Hashtbl.replace labels t c;
              let next = Option.value ~default:[] (Hashtbl.find_opt adj t) in
              visit (List.rev_append next rest)
            end
      in
      visit [ t ])
    nodes;
  labels

let graph (ds : data_sets) (nodes : Tid.t list) : graph =
  let conflict = conflict ds in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun t1 ->
      let neighbours = List.filter (conflict t1) nodes in
      Hashtbl.replace adj t1 neighbours)
    nodes;
  { nodes; adj; components = lazy (label nodes adj) }

let neighbours (g : graph) tid =
  Option.value ~default:[] (Hashtbl.find_opt g.adj tid)

(** Length (in edges) of a shortest conflict path between two transactions,
    if one exists.  [Some 0] means [t1 = t2]. *)
let distance (g : graph) t1 t2 : int option =
  if Tid.equal t1 t2 then Some 0
  else begin
    let visited = Hashtbl.create 16 in
    Hashtbl.replace visited t1 ();
    let q = Queue.create () in
    Queue.push (t1, 0) q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let node, d = Queue.pop q in
      List.iter
        (fun n ->
          if not (Hashtbl.mem visited n) then begin
            Hashtbl.replace visited n ();
            if Tid.equal n t2 then found := Some (d + 1)
            else Queue.push (n, d + 1) q
          end)
        (neighbours g node)
    done;
    !found
  end

(** [distance g t1 t2 <> None], from the component labels. *)
let connected (g : graph) t1 t2 =
  Tid.equal t1 t2
  ||
  let labels = Lazy.force g.components in
  match (Hashtbl.find_opt labels t1, Hashtbl.find_opt labels t2) with
  | Some a, Some b -> a = b
  | _ -> false
