open Mj_hypergraph
open Multijoin

(* Size-driven split order: every plan of [s] relations combines a
   plan of [s1 <= s / 2] relations with a disjoint plan of [s - s1],
   each unordered pair once; [by_size] lists the masks given a plan, in
   order of discovery. *)
let run ?obs ?(allow_cp = false) ~oracle d =
  Subset_dp.drive ?obs ~span:"dpsize" ~oracle d @@ fun u dp ->
  let n = Bitdb.size u in
  let by_size = Array.make (n + 1) [] in
  by_size.(1) <- List.init n (fun i -> 1 lsl (n - 1 - i));
  for s = 2 to n do
    for s1 = 1 to s / 2 do
      let s2 = s - s1 in
      List.iter
        (fun m1 ->
          List.iter
            (fun m2 ->
              (* Each unordered pair once: when sizes tie, order masks. *)
              if m1 land m2 = 0 && (s1 < s2 || m1 < m2) then begin
                let usable = allow_cp || Bitdb.linked u m1 m2 in
                let union = m1 lor m2 in
                if usable && not (Subset_dp.mem dp union) then
                  by_size.(s) <- union :: by_size.(s);
                Subset_dp.offer dp ~usable m1 m2
              end)
            by_size.(s2))
        by_size.(s1)
    done
  done

let plan ?obs ?allow_cp ~oracle d = fst (run ?obs ?allow_cp ~oracle d)

let pairs_considered ?allow_cp d =
  snd (run ?allow_cp ~oracle:(fun _ -> 1) d)
