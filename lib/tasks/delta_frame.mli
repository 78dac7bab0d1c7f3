(** A compiled [Δ(σ)]: the per-(task, σ) part of every local-task CSP.

    By Definition 1, every local task [Π_{τ,σ}] of one input [σ] has
    the same specification on each face of dimension ≥ 1,
    [Δ_{τ,σ}(τ') = proj_{ID(τ')}(Δ(σ))]; only the solo pins
    [Δ_{τ,σ}({v}) = {v}] depend on [τ].  A frame numbers the vertices
    of [Δ(σ)] once and lists, for every color set [S ⊆ ID(σ)], the
    simplices of [Δ(σ)] with exactly the colors [S] as int rows of
    those numbers — the table of a protocol facet with colors [S] in
    any candidate [τ]'s CSP.

    Frames are immutable once built, so pool workers share them
    without a lock; {!Task.frame} memoizes one per (task, σ). *)

type t

val make : Simplex.t -> Complex.t -> t
(** [make sigma d] compiles [d = Δ(σ)].  The vertices of each color
    [i ∈ ID(σ)] are numbered [0, 1, …] in ascending vertex order;
    vertices of colors outside [ID(σ)] are ignored. *)

val candidates : t -> int -> Vertex.t array
(** The vertices of [Δ(σ)] with the given color, indexed by their
    number; empty for a color outside [ID(σ)]. *)

val index : t -> Vertex.t -> int option
(** The number of a vertex among its color's candidates, if it is a
    vertex of [Δ(σ)]. *)

val admits : t -> Simplex.t -> bool
(** Whether [τ] is a chromatic set of [V(Δ(σ))] with [ID(τ) = ID(σ)]:
    the side conditions of Definition 2 ({!Local_task.is_valid_tau}). *)

val rows : t -> int list -> int array array
(** [rows t ids]: the simplices of [Δ(σ)] whose colors are exactly
    [ids] (ascending), each as the row of its vertices' numbers in
    color order; rows ascend lexicographically, which is the
    {!Simplex.compare} order of the simplices.  Empty when [ids] is
    not a subset of [ID(σ)].  The arrays are shared: callers must not
    mutate them. *)
