(* Binary min-heap over (key, prio, seq) triples.  Ordering is total and
   explicitly deterministic: entries compare by [key] first, then [prio]
   (the schedule explorer's random priority, 0 by default), and finally
   [seq] — a monotonically increasing insertion counter.  Because [seq]
   is unique per entry, equal (key, prio) pairs always pop in insertion
   order, so two runs performing identical insertions replay byte-for-
   byte — the property schedule-seed sweeps rely on to reproduce an
   interleaving from its seed alone.

   Layout is struct-of-arrays: slot [i] of the heap is
   ([keys.(i)], [prios.(i)], [seqs.(i)], [vals.(i)]).  The three order
   fields live unboxed in [int array]s, so [add] and [pop] allocate
   nothing beyond the occasional capacity doubling.  Slots at or past
   [len] hold [dummy], never a popped value, so the heap keeps nothing
   reachable that it no longer contains. *)

type 'a t = {
  mutable keys : int array;
  mutable prios : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy =
  {
    keys = [||];
    prios = [||];
    seqs = [||];
    vals = [||];
    len = 0;
    next_seq = 0;
    dummy;
  }

let is_empty h = h.len = 0
let size h = h.len

(* Whether slot [i] orders strictly before the entry (k, p, s). *)
let[@inline] before h i k p s =
  let ki = h.keys.(i) in
  ki < k
  || ki = k
     &&
     let pi = h.prios.(i) in
     pi < p || (pi = p && h.seqs.(i) < s)

let[@inline] move h ~src ~dst =
  h.keys.(dst) <- h.keys.(src);
  h.prios.(dst) <- h.prios.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.vals.(dst) <- h.vals.(src)

let[@inline] place h i k p s v =
  h.keys.(i) <- k;
  h.prios.(i) <- p;
  h.seqs.(i) <- s;
  h.vals.(i) <- v

let grow h =
  let cap = max 16 (2 * Array.length h.keys) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.len;
    b
  in
  h.keys <- extend h.keys 0;
  h.prios <- extend h.prios 0;
  h.seqs <- extend h.seqs 0;
  h.vals <- extend h.vals h.dummy

let add h ~key ?(prio = 0) v =
  if h.len = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  (* Sift up: shift parents that order after the new entry down into
     the hole, then fill the hole once. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    not (before h parent key prio seq)
  do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  place h !i key prio seq v

let top_key h =
  if h.len = 0 then invalid_arg "Heap.top_key: empty heap";
  h.keys.(0)

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.vals.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root: promote the smaller
       child into the hole while it orders before that entry. *)
    let k = h.keys.(last)
    and p = h.prios.(last)
    and s = h.seqs.(last)
    and v = h.vals.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && before h r h.keys.(l) h.prios.(l) h.seqs.(l)
          then r
          else l
        in
        if before h c k p s then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place h !i k p s v
  end;
  h.vals.(last) <- h.dummy;
  top
