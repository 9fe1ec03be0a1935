type symbol =
  | Distinguished
  | Var of int

type tableau = symbol Attr.Map.t array

let initial schemes =
  if schemes = [] then invalid_arg "Chase.initial: empty decomposition";
  let universe =
    List.fold_left Attr.Set.union Attr.Set.empty schemes
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Var !counter
  in
  let row scheme =
    Attr.Set.fold
      (fun a acc ->
        let sym = if Attr.Set.mem a scheme then Distinguished else fresh () in
        Attr.Map.add a sym acc)
      universe Attr.Map.empty
  in
  Array.of_list (List.map row schemes)

(* Equating preference: the distinguished symbol absorbs variables, and the
   lower-numbered variable absorbs the higher. *)
let preferred s1 s2 =
  match s1, s2 with
  | Distinguished, _ | _, Distinguished -> Distinguished
  | Var i, Var j -> Var (min i j)

let substitute_column tableau attr ~old_sym ~new_sym =
  Array.iteri
    (fun i row ->
      if Attr.Map.find attr row = old_sym then
        tableau.(i) <- Attr.Map.add attr new_sym row)
    tableau

let rows_agree row1 row2 attrs =
  Attr.Set.for_all (fun a -> Attr.Map.find a row1 = Attr.Map.find a row2) attrs

let chase fds tableau =
  let tableau = Array.copy tableau in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Fd.fd) ->
        let n = Array.length tableau in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if rows_agree tableau.(i) tableau.(j) d.lhs then
              Attr.Set.iter
                (fun a ->
                  let s1 = Attr.Map.find a tableau.(i) in
                  let s2 = Attr.Map.find a tableau.(j) in
                  if s1 <> s2 then begin
                    let keep = preferred s1 s2 in
                    let drop = if keep = s1 then s2 else s1 in
                    substitute_column tableau a ~old_sym:drop ~new_sym:keep;
                    changed := true
                  end)
                d.rhs
          done
        done)
      fds
  done;
  tableau

let has_distinguished_row tableau =
  Array.exists
    (fun row -> Attr.Map.for_all (fun _ sym -> sym = Distinguished) row)
    tableau

let is_lossless fds schemes =
  match schemes with
  | [] -> invalid_arg "Chase.is_lossless: empty decomposition"
  | [ _ ] -> true
  | _ -> has_distinguished_row (chase fds (initial schemes))
