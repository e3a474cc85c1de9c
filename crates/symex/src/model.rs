//! Models: concrete assignments to symbolic variables.

use std::collections::BTreeMap;
use std::fmt;

use crate::domain::{VarId, VarTable};

/// A (possibly partial) assignment of concrete values to symbolic variables.
///
/// The solver returns a total model over the queried variables; the
/// classifier uses it to concretize a primary path's inputs (paper §3.3:
/// "the conjunction of branch constraints … is solved … to find concrete
/// inputs that drive the program down the corresponding path").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    assignments: BTreeMap<VarId, i64>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns `value` to `var`, returning any previous value.
    pub fn set(&mut self, var: VarId, value: i64) -> Option<i64> {
        self.assignments.insert(var, value)
    }

    /// Looks up the value assigned to `var`.
    pub fn get(&self, var: VarId) -> Option<i64> {
        self.assignments.get(&var).copied()
    }

    /// Removes the assignment of `var`.
    pub fn unset(&mut self, var: VarId) -> Option<i64> {
        self.assignments.remove(&var)
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Iterates over assignments in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.assignments.iter().map(|(k, v)| (*k, *v))
    }

    /// Renders the model with variable names for debug-aid reports.
    pub fn display_named(&self, vars: &VarTable) -> String {
        let mut parts = Vec::new();
        for (id, v) in self.iter() {
            let name = if (id.0 as usize) < vars.len() {
                vars.info(id).name.clone()
            } else {
                id.to_string()
            };
            parts.push(format!("{name} = {v}"));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|(id, v)| format!("{id} = {v}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

impl FromIterator<(VarId, i64)> for Model {
    fn from_iter<T: IntoIterator<Item = (VarId, i64)>>(iter: T) -> Self {
        Model {
            assignments: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_unset() {
        let mut m = Model::new();
        assert!(m.is_empty());
        assert_eq!(m.set(VarId(0), 7), None);
        assert_eq!(m.set(VarId(0), 9), Some(7));
        assert_eq!(m.get(VarId(0)), Some(9));
        assert_eq!(m.len(), 1);
        assert_eq!(m.unset(VarId(0)), Some(9));
        assert!(m.get(VarId(0)).is_none());
    }

    #[test]
    fn display_named_and_raw() {
        let mut vars = VarTable::new();
        let a = vars.fresh("alpha", 0, 5);
        let m: Model = [(a, 2)].into_iter().collect();
        assert_eq!(m.display_named(&vars), "{alpha = 2}");
        assert_eq!(m.to_string(), "{v0 = 2}");
    }
}
