(** Correctness oracles: exhaustively compare a cover against BFS ground
    truth.  Used by the test suite and by `bench/main.exe --selfcheck`. *)

type mismatch = { u : int; v : int; expected : bool; got : bool }

val cover_vs_graph : Cover.t -> Hopi_graph.Digraph.t -> mismatch list
(** All node pairs of the graph; empty list = the cover is exact. *)

type dist_mismatch = { du : int; dv : int; expected_d : int option; got_d : int option }

val dist_cover_vs_graph : Cover.t -> Hopi_graph.Digraph.t -> dist_mismatch list
(** Compares shortest distances for all pairs. *)
