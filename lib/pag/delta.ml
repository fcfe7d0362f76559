(* Edit overlay over the frozen CSR slabs.

   One [side] mirrors one packed slab (label × direction): [added] holds
   overlay edges per node as (aux, other) pairs in insertion order,
   [deleted] tombstones base-slab edges by their exact (node, aux, other)
   triple. Unlabelled sides use aux = 0 throughout. The module is pure
   int bookkeeping — which sides exist and what an edge means is Pag's
   business, and Pag writes both directions of every logical edge. *)

type side = {
  added : (int, (int * int) list) Hashtbl.t; (* node -> (aux, other), newest first *)
  deleted : (int * int * int, unit) Hashtbl.t; (* (node, aux, other) *)
  mutable n_deleted : int;
}

type t = { sides : side array }

let n_sides = 14

let fresh_side () =
  { added = Hashtbl.create 16; deleted = Hashtbl.create 16; n_deleted = 0 }

let create () = { sides = Array.init n_sides (fun _ -> fresh_side ()) }

let side t i = t.sides.(i)

let added_at t i node =
  Option.value ~default:[] (Hashtbl.find_opt (side t i).added node)

let is_added t i node aux other =
  List.exists (fun (a, o) -> a = aux && o = other) (added_at t i node)

let add t i node aux other =
  Hashtbl.replace (side t i).added node ((aux, other) :: added_at t i node)

(* Removes one occurrence; the caller guarantees presence (checked via
   [is_added] before deciding between un-adding and tombstoning). *)
let remove_added t i node aux other =
  let s = side t i in
  let rec drop = function
    | [] -> []
    | (a, o) :: rest when a = aux && o = other -> rest
    | p :: rest -> p :: drop rest
  in
  match drop (added_at t i node) with
  | [] -> Hashtbl.remove s.added node
  | l -> Hashtbl.replace s.added node l

let is_deleted t i node aux other = Hashtbl.mem (side t i).deleted (node, aux, other)

let mark_deleted t i node aux other =
  let s = side t i in
  if not (Hashtbl.mem s.deleted (node, aux, other)) then begin
    Hashtbl.add s.deleted (node, aux, other) ();
    s.n_deleted <- s.n_deleted + 1
  end

let unmark_deleted t i node aux other =
  let s = side t i in
  if Hashtbl.mem s.deleted (node, aux, other) then begin
    Hashtbl.remove s.deleted (node, aux, other);
    s.n_deleted <- s.n_deleted - 1
  end

let has_deletions t i = (side t i).n_deleted > 0

(* Insertion-order iteration: the stored list is newest-first, and the
   traversal order feeds the kernel's worklist, so it must be a pure
   function of the edit history (incremental and rebuilt graphs replay
   the same history and must enqueue identically). *)
let iter_added t i node f = List.iter (fun (a, o) -> f a o) (List.rev (added_at t i node))
