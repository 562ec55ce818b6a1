module I = Geometry.Interval

type fill = {
  layer : Rgrid.Layer.t;
  track : int;
  span : Geometry.Interval.t;
  net : int;
}

type stats = { merges : int; alignments : int; sweeps : int }

let span_free can_fill layer ~track ~net lo hi =
  let ok = ref true in
  for x = lo to hi do
    if not (can_fill layer ~track ~x ~net) then ok := false
  done;
  !ok

(* Fill same-net gaps of width <= max_extension.  The segment after a
   filled gap is absorbed, so the layer is compacted in place as the
   tracks are walked in order. *)
let merge_pass can_fill (rules : Rules.t) layer (s : Extract.tracks) fills
    merges =
  let w = ref 0 in
  for track = 0 to Extract.num_tracks s - 1 do
    let a = s.start.(track) and b = s.start.(track + 1) in
    s.start.(track) <- !w;
    if a < b then begin
      let lo = ref s.lo.(a) and hi = ref s.hi.(a) and net = ref s.net.(a) in
      let emit () =
        s.lo.(!w) <- !lo;
        s.hi.(!w) <- !hi;
        s.net.(!w) <- !net;
        incr w
      in
      for i = a + 1 to b - 1 do
        let gap_lo = !hi + 1 and gap_hi = s.lo.(i) - 1 in
        let width = gap_hi - gap_lo + 1 in
        if
          !net = s.net.(i)
          && !net <> Extract.blockage_net
          && width >= 1
          && width <= rules.Rules.max_extension
          && span_free can_fill layer ~track ~net:!net gap_lo gap_hi
        then begin
          fills :=
            { layer; track; span = I.make ~lo:gap_lo ~hi:gap_hi; net = !net }
            :: !fills;
          incr merges;
          hi := s.hi.(i)
        end
        else begin
          emit ();
          lo := s.lo.(i);
          hi := s.hi.(i);
          net := s.net.(i)
        end
      done;
      emit ()
    end
  done;
  s.start.(Extract.num_tracks s) <- !w

(* Narrow two overlapping cuts on adjacent tracks to their common
   intersection.  Returns true when the pair was aligned.  A cut is
   named by the index of the segment before it; alignments only move
   line ends, so indices stay put. *)
let align_cuts can_fill (rules : Rules.t) layer (s : Extract.tracks) fills
    alignments =
  let cut_max = (2 * rules.Rules.min_line_end_gap) - 1 in
  let changed = ref false in
  let cuts_of track =
    let out = ref [] in
    for i = s.start.(track) to s.start.(track + 1) - 2 do
      let lo = s.hi.(i) + 1 and hi = s.lo.(i + 1) - 1 in
      if hi >= lo && hi - lo + 1 <= cut_max then out := i :: !out
    done;
    List.rev !out
  in
  (* bounds are recomputed from the live segments: earlier alignments in
     the same sweep may have narrowed this cut already *)
  let live_cut i =
    let lo = s.hi.(i) + 1 and hi = s.lo.(i + 1) - 1 in
    if hi >= lo && hi - lo + 1 <= cut_max then Some (lo, hi) else None
  in
  let try_align t1 i1 t2 i2 =
    match (live_cut i1, live_cut i2) with
    | None, _ | _, None -> false
    | Some (lo1, hi1), Some (lo2, hi2) ->
      let aligned = lo1 = lo2 && hi1 = hi2 in
      let disjoint = hi1 < lo2 || hi2 < lo1 in
      if aligned || disjoint then false
      else begin
        let tlo = max lo1 lo2 and thi = min hi1 hi2 in
        if thi - tlo + 1 < rules.Rules.min_line_end_gap then false
        else begin
          (* extend the cut's left segment right up to tlo-1 and its
             right segment left down to thi+1 *)
          let grow track i lo hi =
            let a_net = s.net.(i) and b_net = s.net.(i + 1) in
            let ext_a = tlo - lo and ext_b = hi - thi in
            ext_a <= rules.Rules.max_extension
            && ext_b <= rules.Rules.max_extension
            && (ext_a = 0 || a_net <> Extract.blockage_net)
            && (ext_b = 0 || b_net <> Extract.blockage_net)
            && (ext_a = 0
               || span_free can_fill layer ~track ~net:a_net lo (tlo - 1))
            && (ext_b = 0
               || span_free can_fill layer ~track ~net:b_net (thi + 1) hi)
          in
          if grow t1 i1 lo1 hi1 && grow t2 i2 lo2 hi2 then begin
            let apply track i lo hi =
              if tlo > lo then begin
                fills :=
                  {
                    layer;
                    track;
                    span = I.make ~lo ~hi:(tlo - 1);
                    net = s.net.(i);
                  }
                  :: !fills;
                s.hi.(i) <- tlo - 1
              end;
              if hi > thi then begin
                fills :=
                  {
                    layer;
                    track;
                    span = I.make ~lo:(thi + 1) ~hi;
                    net = s.net.(i + 1);
                  }
                  :: !fills;
                s.lo.(i + 1) <- thi + 1
              end
            in
            apply t1 i1 lo1 hi1;
            apply t2 i2 lo2 hi2;
            incr alignments;
            true
          end
          else false
        end
      end
  in
  for t = 0 to Extract.num_tracks s - 2 do
    List.iter
      (fun c1 ->
        (* recompute the neighbour's cuts each time: earlier alignments
           may have changed them *)
        List.iter
          (fun c2 -> if try_align t c1 (t + 1) c2 then changed := true)
          (cuts_of (t + 1)))
      (cuts_of t)
  done;
  !changed

let extend ?(can_fill = fun _ ~track:_ ~x:_ ~net:_ -> true) rules layout =
  let m2 = Extract.tracks layout Rgrid.Layer.M2
  and m3 = Extract.tracks layout Rgrid.Layer.M3 in
  let fills = ref [] in
  let merges = ref 0 and alignments = ref 0 in
  let sweeps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !sweeps < 4 do
    incr sweeps;
    let before = (!merges, !alignments) in
    merge_pass can_fill rules Rgrid.Layer.M2 m2 fills merges;
    merge_pass can_fill rules Rgrid.Layer.M3 m3 fills merges;
    let c2 = align_cuts can_fill rules Rgrid.Layer.M2 m2 fills alignments in
    let c3 = align_cuts can_fill rules Rgrid.Layer.M3 m3 fills alignments in
    continue_ := c2 || c3 || before <> (!merges, !alignments)
  done;
  ( List.rev !fills,
    { merges = !merges; alignments = !alignments; sweeps = !sweeps } )
