(** Extraction of link targets from XML elements.

    HOPI indexes arbitrary links: XLink ([xlink:href]), plain [href]
    fragments, and ID/IDREF(S).  This module only *recognises* link syntax;
    resolution to element ids happens in the collection builder, which knows
    the document universe. *)

type target = {
  doc : string option;  (** referenced document name; [None] = same document *)
  fragment : string;  (** element [id] within the target document; [""] = root *)
}

val targets_of_element : Xml_tree.t -> target list
(** Targets referenced by this element's attributes, in attribute order.
    Recognised attributes: [xlink:href], [href] (value [doc][#frag]),
    [idref] (one id), [idrefs] (whitespace-separated ids). *)
