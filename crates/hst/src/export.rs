//! Graphviz rendering of trees (`treeemb embed --dot`; debugging and
//! Figure-1-style inspection).

use crate::tree::Hst;
use std::fmt::Write;

impl Hst {
    /// Graphviz DOT rendering. Leaves are labeled with their point ids,
    /// edges with their weights.
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph hst {\n  rankdir=TB;\n");
        for id in self.node_ids() {
            let node = self.node(id);
            match node.point {
                Some(p) => {
                    let _ = writeln!(s, "  n{id} [label=\"p{p}\", shape=box];");
                }
                None => {
                    let _ = writeln!(s, "  n{id} [label=\"\", shape=circle];");
                }
            }
            if let Some(parent) = node.parent {
                let _ = writeln!(
                    s,
                    "  n{parent} -> n{id} [label=\"{:.3}\"];",
                    node.weight_to_parent
                );
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HstBuilder;

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut b = HstBuilder::new();
        let r = b.add_root();
        let c = b.add_child(r, 2.5, None);
        b.add_child(c, 1.0, Some(0));
        let t = b.finish().unwrap();
        let dot = t.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("p0"));
        assert!(dot.contains("2.500"));
        assert_eq!(dot.matches("->").count(), 2);
    }
}
