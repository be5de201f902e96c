(** The paper's running example (Figure 1): the five-gate circuit, its
    fault cone for wire [d], and the per-cycle fault-space pruning
    picture.

    Circuit: A = NAND(a,b) -> f, B = XOR(c,d) -> g, C = INV(e) -> h,
    D = AND(g,f) -> k, E = OR(g,h) -> l; outputs k, l and h. *)

val combinational : unit -> Pruning_netlist.Netlist.t
(** Inputs a..e are primary inputs (Figure 1a). *)

val render_figure1a : unit -> string
(** Text rendering of Figure 1a: the cone of [d], its border wires, and
    the discovered MATEs (expected: exactly the paper's [(!f & h)]),
    plus the unmaskability of [e]. *)

val render_figure1b : unit -> string
(** Text rendering of Figure 1b: the 5 x 8 fault-space matrix where [.]
    marks a fault pruned by a triggered MATE and [#] a possibly effective
    fault, one row per flip-flop. *)
