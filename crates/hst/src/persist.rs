//! Saving and loading trees.
//!
//! An embedding is the *product* of the pipeline — downstream
//! applications (EMD queries, clustering services) want to compute it
//! once and reuse it. The portable format is the deduplicated edge list
//! Algorithm 2 itself produces: `(node, parent, weight, point?)` rows.

use crate::builder::{from_edge_list, EdgeRec, HstError};
use crate::tree::Hst;
use std::fmt::Write as _;
use treeemb_obs::json::{self, Float, Value};

/// One serialized tree row: `(node key, parent key, weight, point)`.
/// The root has `parent == node`; internal nodes carry `point == None`.
pub type EdgeRow = (u64, u64, f64, Option<usize>);

/// Serializable form of a tree: the edge list plus the point count.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeDocument {
    /// Number of input points (leaf ids are `0..n_points`).
    pub n_points: usize,
    /// One row per node; see [`EdgeRow`].
    pub edges: Vec<EdgeRow>,
}

impl Hst {
    /// Exports the tree as a [`TreeDocument`] (stable node keys are the
    /// arena indices, which is fine for persistence — structural hashes
    /// only matter *during* distributed construction).
    pub fn to_document(&self) -> TreeDocument {
        let mut edges = Vec::with_capacity(self.num_nodes());
        for id in self.node_ids() {
            let node = self.node(id);
            let parent = node.parent.unwrap_or(id);
            edges.push((id as u64, parent as u64, node.weight_to_parent, node.point));
        }
        TreeDocument {
            n_points: self.num_points(),
            edges,
        }
    }

    /// Reconstructs a tree from a document, revalidating every
    /// structural invariant (single root, connectivity, dense points,
    /// finite non-negative weights).
    pub fn from_document(doc: &TreeDocument) -> Result<Hst, HstError> {
        let recs: Vec<EdgeRec> = doc
            .edges
            .iter()
            .map(|&(node, parent, weight, point)| EdgeRec {
                node,
                parent,
                weight,
                point,
            })
            .collect();
        from_edge_list(&recs, doc.n_points)
    }

    /// JSON serialization of [`Hst::to_document`].
    pub fn to_json(&self) -> String {
        self.to_document().to_json()
    }

    /// Parses and validates a JSON tree document.
    pub fn from_json(s: &str) -> Result<Hst, HstError> {
        let doc = TreeDocument::from_json(s).map_err(HstError::NotATreeMsg)?;
        Hst::from_document(&doc)
    }
}

// The document shape is the one serde_json emitted before —
// `{"n_points":N,"edges":[[node,parent,weight,point-or-null],...]}` —
// so previously saved trees keep loading. Bytes are written here and
// read back through the workspace codec, `treeemb_obs::json`.
impl TreeDocument {
    /// Serializes the document as compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(32 + self.edges.len() * 32);
        let _ = write!(s, "{{\"n_points\":{},\"edges\":[", self.n_points);
        for (i, &(node, parent, weight, point)) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{node},{parent},{},", Float(weight));
            match point {
                Some(p) => {
                    let _ = write!(s, "{p}]");
                }
                None => s.push_str("null]"),
            }
        }
        s.push_str("]}");
        s
    }

    /// Parses a document from JSON. Accepts arbitrary whitespace and any
    /// object-key order; rejects unknown keys, duplicates, missing keys,
    /// and trailing input.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let invalid = |msg: &str| format!("invalid tree JSON: {msg}");
        let value = json::parse(s).map_err(|e| invalid(&e))?;
        let fields = value
            .as_obj()
            .ok_or_else(|| invalid("document must be an object"))?;
        let (mut n_points, mut edges) = (None, None);
        for (key, v) in fields {
            match key.as_str() {
                "n_points" if n_points.is_none() => {
                    n_points = Some(
                        int(v).ok_or_else(|| invalid("n_points must be a non-negative integer"))?,
                    );
                }
                "edges" if edges.is_none() => {
                    let rows = v
                        .as_arr()
                        .ok_or_else(|| invalid("edges must be an array"))?;
                    edges = Some(
                        rows.iter()
                            .map(|row| {
                                edge_row(row).ok_or_else(|| {
                                    invalid("edge must be [node, parent, weight, point-or-null]")
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    );
                }
                k => return Err(invalid(&format!("unexpected or duplicate key {k:?}"))),
            }
        }
        match (n_points, edges) {
            (Some(n_points), Some(edges)) => Ok(TreeDocument { n_points, edges }),
            _ => Err(invalid("document must contain n_points and edges")),
        }
    }
}

/// A non-negative integer that fits `T`.
fn int<T: TryFrom<u64>>(v: &Value) -> Option<T> {
    T::try_from(v.as_u64()?).ok()
}

fn edge_row(row: &Value) -> Option<EdgeRow> {
    let [node, parent, weight, point] = row.as_arr()? else {
        return None;
    };
    let point = match point {
        Value::Null => None,
        p => Some(int(p)?),
    };
    Some((int(node)?, int(parent)?, weight.as_f64()?, point))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HstBuilder;

    fn fixture() -> Hst {
        let mut b = HstBuilder::new();
        let root = b.add_root();
        let a = b.add_child(root, 4.0, None);
        let bb = b.add_child(root, 4.0, None);
        b.add_child(a, 1.0, Some(0));
        b.add_child(a, 1.5, Some(1));
        b.add_child(bb, 1.0, Some(2));
        b.finish().unwrap()
    }

    #[test]
    fn document_round_trip_preserves_metric() {
        let t = fixture();
        let doc = t.to_document();
        let t2 = Hst::from_document(&doc).unwrap();
        assert_eq!(t2.num_points(), t.num_points());
        for p in 0..3 {
            for q in 0..3 {
                assert_eq!(t.distance(p, q), t2.distance(p, q), "({p},{q})");
            }
        }
    }

    #[test]
    fn json_round_trip() {
        let t = fixture();
        let json = t.to_json();
        // Golden bytes: saved trees are a stable on-disk format.
        assert_eq!(
            json,
            "{\"n_points\":3,\"edges\":[[0,0,0.0,null],[1,0,4.0,null],[2,0,4.0,null],\
             [3,1,1.0,0],[4,1,1.5,1],[5,2,1.0,2]]}"
        );
        let t2 = Hst::from_json(&json).unwrap();
        assert_eq!(t.distance(0, 2), t2.distance(0, 2));
        assert_eq!(t2.num_nodes(), t.num_nodes());
    }

    #[test]
    fn parser_accepts_whitespace_and_key_order() {
        let t = fixture();
        let doc = t.to_document();
        let mut rows = String::new();
        for (i, &(n, p, w, pt)) in doc.edges.iter().enumerate() {
            if i > 0 {
                rows.push_str(" ,\n");
            }
            let pt = pt.map_or("null".to_string(), |v| v.to_string());
            rows.push_str(&format!("[ {n}, {p} , {w:.3}, {pt} ]"));
        }
        let pretty = format!(
            "{{ \"edges\" : [\n{rows}\n] ,\n  \"n_points\" : {} }}",
            doc.n_points
        );
        let t2 = Hst::from_json(&pretty).unwrap();
        assert_eq!(t2.num_nodes(), t.num_nodes());
        assert_eq!(t2.distance(0, 2), t.distance(0, 2));
    }

    #[test]
    fn parser_rejects_trailing_and_unknown_keys() {
        let t = fixture();
        let json = t.to_json();
        assert!(Hst::from_json(&format!("{json} extra")).is_err());
        assert!(Hst::from_json("{\"n_points\":0,\"bogus\":[]}").is_err());
        assert!(TreeDocument::from_json("{\"n_points\":0}").is_err());
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(Hst::from_json("{not json").is_err());
        // Structurally invalid: two roots.
        let doc = TreeDocument {
            n_points: 0,
            edges: vec![(1, 1, 0.0, None), (2, 2, 0.0, None)],
        };
        assert!(Hst::from_document(&doc).is_err());
    }

    #[test]
    fn tampered_weight_is_rejected() {
        let t = fixture();
        let mut doc = t.to_document();
        doc.edges[1].2 = -5.0;
        assert!(Hst::from_document(&doc).is_err());
    }
}
