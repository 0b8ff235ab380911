#!/usr/bin/env python3
"""Walk through the target tree (Section 5) on the running example.

Reproduces, in text form:

* Example 10 — the maximal independent sets of phi2 and phi3 and their
  join into the four targets;
* Fig. 4 — the target tree, with per-node subtree attribute-value sets;
* Example 14 — the best-first search repairing t4 = (New York, Western,
  Queens, MA) to (New York, Western, Queens, NY) at cost 1.0, visiting
  only a fraction of the tree.

Run: python examples/target_tree_walkthrough.py
"""

from repro.core.distances import DistanceModel
from repro.core.multi.target_tree import TargetTree
from repro.dataset import CITIZENS_FDS, citizens_dirty

PHI2_SET = [("New York", "NY"), ("Boston", "MA")]
PHI3_SET = [
    ("New York", "Main", "Manhattan"),
    ("New York", "Western", "Queens"),
    ("Boston", "Main", "Financial"),
    ("Boston", "Arlingto", "Brookside"),
]


def render(tree: TargetTree) -> None:
    """Print the tree depth-first from its level arrays."""
    levels = tree.levels()

    def walk(depth: int, parent: int) -> None:
        if depth == len(levels):
            return
        level = levels[depth]
        for node, element in enumerate(level.elements):
            if level.parents[node] != parent:
                continue
            extras = {
                attr: sorted(values)
                for attr, values in sorted(level.subtree_values[node].items())
            }
            extra_text = f"  subtree values: {extras}" if extras else ""
            print(f"{'  ' * (depth + 1)}{element}{extra_text}")
            walk(depth + 1, node)

    print("<root>")
    walk(0, -1)


def main() -> None:
    relation = citizens_dirty()
    model = DistanceModel(relation)
    component = CITIZENS_FDS[1:]  # phi2, phi3

    print("=== Independent sets to join (Example 10) ===")
    print(f"  phi2: {PHI2_SET}")
    print(f"  phi3: {PHI3_SET}")
    print()

    tree = TargetTree(component, [PHI2_SET, PHI3_SET], model)
    print(f"=== Target tree (Fig. 4): {tree.node_count} nodes ===")
    render(tree)
    print()

    print("=== The four joined targets ===")
    for target in tree.targets():
        print(f"  {target.as_mapping()}")
    print()

    print("=== Best-first search for t4 (Example 14) ===")
    t4 = relation.project(3, tree.attributes)
    print(f"  query projection: {dict(zip(tree.attributes, t4))}")
    target, cost = tree.nearest_target(t4)
    print(f"  nearest target:   {target.as_mapping()}")
    print(f"  repair cost:      {cost:.3f}")
    print(
        f"  nodes visited: {tree.nodes_visited} "
        f"(of {tree.node_count} total)"
    )


if __name__ == "__main__":
    main()
