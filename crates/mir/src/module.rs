//! Modules, globals and named struct types.

use crate::func::Function;
use crate::types::{Type, TypeKind};
use std::fmt;

/// Id of a global variable, indexing [`Module::globals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@g{}", self.0)
    }
}

/// Id of a function, indexing [`Module::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@f{}", self.0)
    }
}

/// Id of a named struct type, indexing [`Module::structs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

impl fmt::Display for StructId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%s{}", self.0)
    }
}

/// A named struct type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Source-level name (`Node`, `lf_slot`, ...).
    pub name: String,
    /// Field types in declaration order.
    pub fields: Vec<Type>,
}

/// A module-level global variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDef {
    /// Source-level name, unique within the module (without `@`).
    pub name: String,
    /// Variable type.
    pub ty: Type,
    /// Flat initializer, one `i64` per scalar slot (zero-filled if short).
    pub init: Vec<i64>,
}

/// A linked program: the unit AtoMig's link-time passes operate on (§3.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    /// Module name (informational).
    pub name: String,
    /// Named struct types.
    pub structs: Vec<StructDef>,
    /// Global variables.
    pub globals: Vec<GlobalDef>,
    /// Function definitions.
    pub funcs: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Adds a struct, returning its id.
    pub fn add_struct(&mut self, def: StructDef) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(def);
        id
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, def: GlobalDef) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(def);
        id
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Struct lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn strukt(&self, id: StructId) -> &StructDef {
        &self.structs[id.0 as usize]
    }

    /// Global lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn global(&self, id: GlobalId) -> &GlobalDef {
        &self.globals[id.0 as usize]
    }

    /// Function lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable function lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Finds a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Function ids in index order.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.funcs.len() as u32).map(FuncId)
    }

    /// Precomputed slot sizes for all structs, in id order. Handles structs
    /// referring to earlier-declared structs; a forward reference counts as
    /// a single slot (pointers are how cycles appear in practice).
    pub fn struct_slot_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.structs.len()];
        for (i, s) in self.structs.iter().enumerate() {
            let mut total = 0;
            for fld in &s.fields {
                total += match fld.kind() {
                    TypeKind::Struct(sid) if (sid.0 as usize) < i => sizes[sid.0 as usize],
                    TypeKind::Struct(_) => 1,
                    _ => fld.slot_count(&sizes),
                };
            }
            sizes[i] = total;
        }
        sizes
    }

    /// Total instruction count across all functions (scalability metrics).
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new("m");
        let s = m.add_struct(StructDef {
            name: "Node".into(),
            fields: vec![Type::I64, Type::ptr_to(Type::I64)],
        });
        let g = m.add_global(GlobalDef {
            name: "flag".into(),
            ty: Type::I32,
            init: vec![0],
        });
        let f = m.add_func(Function::new("main", vec![], Type::I32));
        assert_eq!(m.strukt(s).name, "Node");
        assert_eq!(m.global(g).name, "flag");
        assert_eq!(m.func(f).name, "main");
        assert_eq!(m.func_by_name("main"), Some(f));
        assert_eq!(m.global_by_name("flag"), Some(g));
        assert_eq!(m.func_by_name("absent"), None);
    }

    #[test]
    fn struct_slot_sizes_nested() {
        let mut m = Module::new("m");
        let inner = m.add_struct(StructDef {
            name: "Inner".into(),
            fields: vec![Type::I32, Type::I32],
        });
        m.add_struct(StructDef {
            name: "Outer".into(),
            fields: vec![
                Type::struct_of(inner),
                Type::I64,
                Type::array_of(Type::I8, 3),
            ],
        });
        let sizes = m.struct_slot_sizes();
        assert_eq!(sizes, vec![2, 6]);
    }

    #[test]
    fn empty_module_counts() {
        let m = Module::new("empty");
        assert_eq!(m.inst_count(), 0);
        assert_eq!(m.struct_slot_sizes(), Vec::<u32>::new());
    }
}
