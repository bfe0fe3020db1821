(** Parallel map over independent work items using OCaml 5 domains.

    Work items are drawn from a shared atomic counter so uneven item
    costs balance across domains; results keep the input order. The
    mapped function must be pure or touch only item-local state (every
    use in this repository maps over self-contained scenarios carrying
    their own PRNG).

    The domain count is [MCS_DOMAINS] when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()], capped at 8; 1
    degrades to [List.map]. An ill-formed [MCS_DOMAINS] is diagnosed on
    stderr (once — the verdict is cached for the process) instead of
    being silently ignored. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f l] is [List.map f l] computed on several domains. The first
    exception raised by any worker is re-raised — with that worker's
    backtrace — after all domains have joined. *)
