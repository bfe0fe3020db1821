type span = {
  name : string;
  depth : int;
  start_s : float;
  dur_s : float;
  self_s : float;
  alloc_w : float;
}

type counter = {
  cname : string;
  value : int Atomic.t;
}

type frame = {
  fname : string;
  fdepth : int;
  fstart : float;
  fwords : float;
  mutable child_dur : float;
}

(* Single recorder per process. Counters are plain atomics, so per-shard
   engine loops running on their own domains ([Mcs_serve]) and
   [Mcs_util.Parmap] workers all contribute without racing. Spans keep a
   frame *stack* and therefore stay owned by the domain that enabled the
   recorder: span probes from any other domain are dropped rather than
   corrupting the stack (profile a serve run in its single-domain
   fallback mode to capture a complete span trace). *)
let on = Atomic.make false
let owner : Domain.id option ref = ref None
let epoch = ref 0.
let stack : frame list ref = ref []
let completed : span list ref = ref [] (* reverse completion order *)
let registry : (string, counter) Hashtbl.t = Hashtbl.create 32
[@@guarded_by registry_lock]

let registry_lock = Mutex.create ()

let enabled () = Atomic.get on

let owned () =
  match !owner with Some d -> Domain.self () = d | None -> false

let now () = Unix.gettimeofday ()

(* Words allocated in the minor heap since program start. [Gc.counters]
   under-reports minor words on OCaml 5.1; [Gc.minor_words] is exact. *)
let words () = Gc.minor_words ()

let reset () =
  stack := [];
  completed := [];
  Mutex.protect registry_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.value 0) registry);
  if Atomic.get on then epoch := now ()

let enable () =
  Atomic.set on true;
  owner := Some (Domain.self ());
  reset ()

let disable () =
  Atomic.set on false;
  stack := []

(* Interning is the cold path (module initialisation, mostly on the main
   domain) but must still be safe when a worker domain interns lazily —
   the registry is the one shared mutable structure here. *)
let counter name =
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { cname = name; value = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c)

let incr ?(by = 1) c =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.value by)

let rec record_max c v =
  if Atomic.get on then begin
    let cur = Atomic.get c.value in
    if v > cur && not (Atomic.compare_and_set c.value cur v) then
      record_max c v
  end

let value c = Atomic.get c.value

let counter_values () =
  Mutex.protect registry_lock (fun () ->
      Hashtbl.fold (fun _ c acc -> (c.cname, Atomic.get c.value) :: acc)
        registry [])
  |> List.sort compare

let enter name =
  if Atomic.get on && owned () then
    stack :=
      {
        fname = name;
        fdepth = List.length !stack;
        fstart = now ();
        fwords = words ();
        child_dur = 0.;
      }
      :: !stack

let leave () =
  if Atomic.get on && owned () then
    match !stack with
    | [] -> ()
    | f :: rest ->
      let dur = Float.max 0. (now () -. f.fstart) in
      let alloc = Float.max 0. (words () -. f.fwords) in
      (match rest with
      | parent :: _ -> parent.child_dur <- parent.child_dur +. dur
      | [] -> ());
      stack := rest;
      completed :=
        {
          name = f.fname;
          depth = f.fdepth;
          start_s = f.fstart -. !epoch;
          dur_s = dur;
          self_s = Float.max 0. (dur -. f.child_dur);
          alloc_w = alloc;
        }
        :: !completed

let with_span name f =
  if not (Atomic.get on && owned ()) then f ()
  else begin
    enter name;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let spans () = List.rev !completed
