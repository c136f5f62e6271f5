(** The single source of truth for {e what exists}: every SMR scheme and
    every benchmark data structure, addressable by one canonical name, over
    any runtime.

    {!Make} instantiates the full scheme table over a
    {!Smr_runtime.Runtime_intf.S}; {!Sim} and {!Native} are the two stock
    instantiations. No driver (figures, verify, bench, stress) may carry
    its own scheme or structure list — they all enumerate through this
    module, so adding a scheme or structure is a one-file change.

    Canonical scheme names (13): [Leaky], [Epoch], [IBR], [HE], [HP],
    [Hyaline], [Hyaline-1], [Hyaline-S], [Hyaline-1S], the Crystalline
    follow-ups [Crystalline-L] and [Crystalline-W] (arXiv:2108.02763),
    and the LL/SC-headed variants [Hyaline/llsc] and [Hyaline-S/llsc]
    (Fig. 7 head model).
    Canonical structure names (7): [list], [hashmap], [nm-tree], [bonsai],
    [skiplist], [stack], [queue]. *)

module type SMR = Smr.Smr_intf.SMR
module type CONC_SET = Smr_ds.Ds_intf.CONC_SET

(** The "architecture" selects the head implementation for the Hyaline
    family: [X86] uses double-width CAS, [Ppc] the Fig. 7 LL/SC model —
    that substitution is how the PowerPC figures (13–16) are reproduced. *)
type arch = X86 | Ppc

val arch_name : arch -> string

(** Every data structure in [lib/ds]: the paper's benchmark quartet plus
    the skip list, Treiber stack and Michael–Scott queue. *)
type structure =
  | List_set  (** Harris & Michael linked-list set *)
  | Hashmap  (** Michael hash map *)
  | Nm_tree  (** Natarajan & Mittal tree *)
  | Bonsai  (** Bonsai tree (snapshot traversals) *)
  | Skiplist  (** Fraser / Herlihy–Shavit skip list *)
  | Stack  (** Treiber stack, set-view adapter *)
  | Queue  (** Michael & Scott queue, set-view adapter *)

val structures : structure list
(** All seven, canonical order. *)

val paper_structures : structure list
(** The §6 benchmark quartet, in figure order (list, bonsai, hashmap,
    nm-tree). *)

val structure_name : structure -> string
(** Canonical short key, used in JSON reports, trace files and CLIs. *)

val structure_of_name : string -> structure option

val ds_name : structure -> string
(** Human-readable title for figure captions. *)

val supported : structure -> string -> bool
(** [supported structure scheme_name]: whether the pair is meaningful.
    Bonsai excludes HP and HE — per-pointer hazards cannot protect a
    snapshot traversal (§6, Fig. 8b). *)

val scheme_names : string list
(** The scheme set as plotted in the paper's figures (9 names; the
    Hyaline family keeps its plain names on every arch, the arch picks
    the head). *)

val bench_scheme_names : string list
(** The benchmark-report set: [scheme_names] plus [Crystalline-L]
    and [Crystalline-W]. Figure sweeps keep the paper's own scheme list;
    the bench/micro reports cover the whole Hyaline lineage. *)

val every_scheme_name : string list
(** All 13 canonical scheme names, including the Crystalline pair and the
    explicitly LL/SC-headed variants — the conformance-matrix extent. *)

(** A registry instance: the full scheme table over one runtime. *)
module type S = sig
  val runtime_name : string

  val all_schemes : arch -> (string * (module SMR)) list
  (** Scheme sets as plotted in the paper's figures; names are
      [scheme_names]. *)

  val every_scheme : (string * (module SMR)) list
  (** All 13 canonical schemes (x86 set, the Crystalline pair, plus the
      LL/SC-headed variants under their own names) — what conformance
      and micro-benchmarks enumerate. *)

  val scheme_of_name : ?arch:arch -> string -> (module SMR) option
  (** Resolve a canonical name (default arch: [X86]; under [Ppc] the plain
      Hyaline family names resolve to their LL/SC-headed modules). *)

  val schemes_for : structure -> arch -> (string * (module SMR)) list
  (** [all_schemes arch] filtered by {!supported}. *)

  val make_set : structure -> (module SMR) -> (module CONC_SET)
  (** Instantiate a structure over a scheme. Stack and queue are wrapped
      in a set-view adapter (insert = push/enqueue, remove = pop/dequeue
      ignoring the key, contains = peek) so every structure can run the
      {!Workload} and conformance programs uniformly. *)
end

module Make (R : Smr_runtime.Runtime_intf.S) : S
(** Instantiate every scheme over runtime [R]. *)

module Sim : S
(** Over {!Smr_runtime.Sim_runtime} — figures, verify, workload sweeps. *)

module Native : S
(** Over {!Smr_runtime.Native_runtime} — stress tests and the native
    parity matrix and micro-benchmarks. *)
