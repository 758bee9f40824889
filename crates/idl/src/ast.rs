//! Abstract syntax tree for the IDL subset.

use std::fmt;

/// Where a declaration starts: the index of its source within the
/// compilation unit (see [`crate::parse_unit`]) and the 1-based line and
/// column of its first token. Positions are not part of AST identity —
/// every `Pos` compares equal — so `parse(pretty(ast)) == ast` holds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pos {
    /// Index of the source within the compilation unit.
    pub file: u32,
    /// Line (1-based).
    pub line: u32,
    /// Column (1-based).
    pub col: u32,
}

impl PartialEq for Pos {
    fn eq(&self, _: &Pos) -> bool {
        true
    }
}

/// A parse or check error: what went wrong, and at which declaration or
/// token. Displays as `line:col: msg`.
#[derive(Clone, Debug, PartialEq)]
pub struct IdlError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for IdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.pos.line, self.pos.col, self.msg)
    }
}

impl std::error::Error for IdlError {}

/// A parsed IDL specification (one compilation unit).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Spec {
    /// Top-level definitions.
    pub defs: Vec<Def>,
}

/// A definition at module or top level.
#[derive(Clone, Debug, PartialEq)]
pub enum Def {
    /// `module M { ... };`
    Module(Module),
    /// `interface I [: Base] { ... };`
    Interface(Interface),
    /// `struct S { ... };`
    Struct(StructDef),
    /// `enum E { A, B };`
    Enum(EnumDef),
    /// `typedef sequence<double> Vec;`
    Typedef(Typedef),
    /// `exception E { ... };`
    Exception(ExceptionDef),
    /// `native N;`
    Native(Native),
}

/// A named scope of definitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Contained definitions.
    pub defs: Vec<Def>,
}

/// An interface declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Interface {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Interface name.
    pub name: String,
    /// Single inheritance base, as a (possibly scoped) name.
    pub base: Option<String>,
    /// Operations in declaration order.
    pub ops: Vec<Operation>,
    /// Attributes in declaration order.
    pub attrs: Vec<Attribute>,
}

/// An operation declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Operation {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Operation name.
    pub name: String,
    /// Whether declared `oneway` (no reply; must return void, have no
    /// out/inout parameters, and raise nothing).
    pub oneway: bool,
    /// Return type (`Type::Void` for void).
    pub ret: Type,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Exception names from the `raises(...)` clause.
    pub raises: Vec<String>,
}

/// A parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Direction.
    pub dir: Direction,
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// Parameter passing direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    In,
    /// Server → client.
    Out,
    /// Both ways.
    InOut,
}

/// An `attribute` declaration (maps to `_get_x` / `_set_x` operations).
#[derive(Clone, Debug, PartialEq)]
pub struct Attribute {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Whether `readonly` (no setter).
    pub readonly: bool,
    /// Attribute name.
    pub name: String,
    /// Attribute type.
    pub ty: Type,
}

/// A struct declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct StructDef {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Struct name.
    pub name: String,
    /// Members in declaration order.
    pub members: Vec<(String, Type)>,
}

/// An enum declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct EnumDef {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Enum name.
    pub name: String,
    /// Enumerator names; discriminants are indices.
    pub members: Vec<String>,
}

/// A typedef.
#[derive(Clone, Debug, PartialEq)]
pub struct Typedef {
    /// Where the declaration starts.
    pub pos: Pos,
    /// New name.
    pub name: String,
    /// Aliased type.
    pub ty: Type,
}

/// An exception declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ExceptionDef {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Exception name.
    pub name: String,
    /// Members in declaration order.
    pub members: Vec<(String, Type)>,
}

/// A `native` declaration: an opaque type the Rust side defines.
#[derive(Clone, Debug, PartialEq)]
pub struct Native {
    /// Where the declaration starts.
    pub pos: Pos,
    /// Type name.
    pub name: String,
}

/// An IDL type.
#[derive(Clone, Debug, PartialEq)]
pub enum Type {
    /// `void` (return type only).
    Void,
    /// `boolean`
    Boolean,
    /// `octet`
    Octet,
    /// `short`
    Short,
    /// `unsigned short`
    UShort,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `string`
    String,
    /// `any`
    Any,
    /// `Object` (an object reference)
    Object,
    /// `sequence<T>`
    Sequence(Box<Type>),
    /// A (possibly scoped, `A::B`) reference to a named type.
    Named(String),
}

impl Type {
    /// The Rust spelling of this type (named types keep their IDL name,
    /// with `::` mapped to Rust path separators).
    pub fn rust(&self) -> String {
        match self {
            Type::Void => "()".into(),
            Type::Boolean => "bool".into(),
            Type::Octet => "u8".into(),
            Type::Short => "i16".into(),
            Type::UShort => "u16".into(),
            Type::Long => "i32".into(),
            Type::ULong => "u32".into(),
            Type::LongLong => "i64".into(),
            Type::ULongLong => "u64".into(),
            Type::Float => "f32".into(),
            Type::Double => "f64".into(),
            Type::String => "String".into(),
            Type::Any => "::cdr::Any".into(),
            Type::Object => "::orb::Ior".into(),
            Type::Sequence(t) => format!("Vec<{}>", t.rust()),
            Type::Named(n) => n.clone(),
        }
    }
}

/// The operations of an interface as they appear on the wire: declared
/// ops plus the `_get_`/`_set_` operations its attributes imply (each at
/// its attribute's position).
pub fn wire_ops(ops: &[Operation], attrs: &[Attribute]) -> Vec<Operation> {
    let mut all = ops.to_vec();
    for a in attrs {
        let op = |prefix: &str, ret: Type, params: Vec<Param>| Operation {
            pos: a.pos,
            name: format!("{prefix}{}", a.name),
            oneway: false,
            ret,
            params,
            raises: vec![],
        };
        all.push(op("_get_", a.ty.clone(), vec![]));
        if !a.readonly {
            let value = Param {
                dir: Direction::In,
                name: "value".into(),
                ty: a.ty.clone(),
            };
            all.push(op("_set_", Type::Void, vec![value]));
        }
    }
    all
}
