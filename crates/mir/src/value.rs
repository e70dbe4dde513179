//! SSA values: the operands of MIR instructions.

use crate::func::InstId;
use crate::module::{FuncId, GlobalId};
use std::fmt;

/// An operand of an instruction.
///
/// Because the frontend lowers like `clang -O0` (every source variable is a
/// stack slot), values are either constants, addresses of globals, function
/// parameters, instruction results, or function references.
///
/// # Examples
///
/// ```
/// use atomig_mir::Value;
///
/// let c = Value::Const(42);
/// assert!(c.is_const());
/// assert_eq!(c.as_const(), Some(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer constant. The type is implied by the using instruction.
    Const(i64),
    /// The null pointer.
    Null,
    /// The address of a module-level global.
    Global(GlobalId),
    /// The `n`-th parameter of the enclosing function.
    Param(u32),
    /// The result of an instruction in the enclosing function.
    Inst(InstId),
    /// The address of a function (used as spawn targets / call operands).
    Func(FuncId),
}

impl Value {
    /// Returns `true` for [`Value::Const`] and [`Value::Null`].
    pub fn is_const(&self) -> bool {
        matches!(self, Value::Const(_) | Value::Null)
    }

    /// The constant payload, if this is a [`Value::Const`] (`Null` reads as 0).
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Value::Const(c) => Some(*c),
            Value::Null => Some(0),
            _ => None,
        }
    }

    /// The instruction id, if this value is an instruction result.
    pub fn as_inst(&self) -> Option<InstId> {
        match self {
            Value::Inst(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Const(c) => write!(f, "{c}"),
            Value::Null => write!(f, "null"),
            Value::Global(g) => write!(f, "@g{}", g.0),
            Value::Param(i) => write!(f, "%arg{i}"),
            Value::Inst(i) => write!(f, "%t{}", i.0),
            Value::Func(fid) => write!(f, "@f{}", fid.0),
        }
    }
}

impl From<i64> for Value {
    fn from(c: i64) -> Self {
        Value::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_helpers() {
        assert_eq!(Value::Const(7).as_const(), Some(7));
        assert_eq!(Value::Null.as_const(), Some(0));
        assert_eq!(Value::Param(0).as_const(), None);
        assert!(Value::Null.is_const());
        assert!(!Value::Param(1).is_const());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Inst(InstId(3)).as_inst(), Some(InstId(3)));
        assert_eq!(Value::Global(GlobalId(2)).as_inst(), None);
        assert_eq!(Value::Const(0).as_inst(), None);
    }

    #[test]
    fn from_i64() {
        let v: Value = 5i64.into();
        assert_eq!(v, Value::Const(5));
    }
}
