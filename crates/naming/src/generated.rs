// Generated by idlc from idl/naming.idl — DO NOT EDIT.
// Interfaces: trait + skeleton (server), stub (client).

#[allow(non_snake_case, non_camel_case_types, dead_code, clippy::let_unit_value, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
pub mod CosNaming {
    ::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] #[derive(Eq, PartialOrd, Ord, Hash)] NameComponent { id: String, kind: String });
    pub use super::Name;
    #[allow(non_camel_case_types)] pub type IorSeq = Vec<::orb::Ior>;
    ::cdr::cdr_enum!(#[allow(non_camel_case_types)] #[derive(PartialOrd, Ord, Hash)] NotFoundReason { missing_node = 0 });
    ::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] NotFound { why: NotFoundReason, rest_of_name: Name });
    impl NotFound {
        pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext/NotFound:1.0";
        pub fn raise(self) -> ::orb::Exception { ::orb::Exception::User(::orb::UserException::new(Self::REPO_ID, &self)) }
        pub fn extract(e: &::orb::Exception) -> Option<Self> { match e { ::orb::Exception::User(u) if u.id == Self::REPO_ID => u.members().ok(), _ => None } }
    }
    ::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] AlreadyBound {});
    impl AlreadyBound {
        pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext/AlreadyBound:1.0";
        pub fn raise(self) -> ::orb::Exception { ::orb::Exception::User(::orb::UserException::new(Self::REPO_ID, &self)) }
        pub fn extract(e: &::orb::Exception) -> Option<Self> { match e { ::orb::Exception::User(u) if u.id == Self::REPO_ID => u.members().ok(), _ => None } }
    }
    ::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] InvalidName {});
    impl InvalidName {
        pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext/InvalidName:1.0";
        pub fn raise(self) -> ::orb::Exception { ::orb::Exception::User(::orb::UserException::new(Self::REPO_ID, &self)) }
        pub fn extract(e: &::orb::Exception) -> Option<Self> { match e { ::orb::Exception::User(u) if u.id == Self::REPO_ID => u.members().ok(), _ => None } }
    }
    #[allow(non_camel_case_types)]
    pub trait NamingContext {
        fn bind(&mut self, call: &mut ::orb::CallCtx<'_>, n: Name, obj: ::orb::Ior) -> Result<(), ::orb::Exception>;
        fn rebind(&mut self, call: &mut ::orb::CallCtx<'_>, n: Name, obj: ::orb::Ior) -> Result<(), ::orb::Exception>;
        fn resolve(&mut self, call: &mut ::orb::CallCtx<'_>, n: Name) -> Result<::orb::Ior, ::orb::Exception>;
        fn bind_group_member(&mut self, call: &mut ::orb::CallCtx<'_>, group: Name, member: ::orb::Ior) -> Result<(), ::orb::Exception>;
        fn unbind_group_member(&mut self, call: &mut ::orb::CallCtx<'_>, group: Name, member: ::orb::Ior) -> Result<(), ::orb::Exception>;
        fn group_members(&mut self, call: &mut ::orb::CallCtx<'_>, group: Name) -> Result<IorSeq, ::orb::Exception>;
        fn group_view(&mut self, call: &mut ::orb::CallCtx<'_>, group: Name) -> Result<(u64, IorSeq), ::orb::Exception>;
    }
    #[allow(non_camel_case_types)]
    pub struct NamingContextSkeleton<T: NamingContext>(pub T);
    impl<T: NamingContext> NamingContextSkeleton<T> {
        pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext:1.0";
    }
    impl<T: NamingContext> ::orb::Servant for NamingContextSkeleton<T> {
        fn dispatch(&mut self, call: &mut ::orb::CallCtx<'_>, op: &str, args: &[u8]) -> Result<Vec<u8>, ::orb::Exception> {
            match op {
                "bind" => { let (n, obj,): (Name, ::orb::Ior,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.bind(call, n, obj)?; Ok(::cdr::to_bytes(&r)) }
                "rebind" => { let (n, obj,): (Name, ::orb::Ior,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.rebind(call, n, obj)?; Ok(::cdr::to_bytes(&r)) }
                "resolve" => { let (n,): (Name,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.resolve(call, n)?; Ok(::cdr::to_bytes(&r)) }
                "bind_group_member" => { let (group, member,): (Name, ::orb::Ior,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.bind_group_member(call, group, member)?; Ok(::cdr::to_bytes(&r)) }
                "unbind_group_member" => { let (group, member,): (Name, ::orb::Ior,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.unbind_group_member(call, group, member)?; Ok(::cdr::to_bytes(&r)) }
                "group_members" => { let (group,): (Name,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.group_members(call, group)?; Ok(::cdr::to_bytes(&r)) }
                "group_view" => { let (group,): (Name,) = ::cdr::from_bytes(args).map_err(|e| ::orb::Exception::System(::orb::SystemException::marshal(e)))?; let r = self.0.group_view(call, group)?; Ok(::cdr::to_bytes(&r)) }
                other => Err(::orb::Exception::System(::orb::SystemException::bad_operation(other))),
            }
        }
    }
    #[allow(non_camel_case_types)]
    #[derive(Clone, Debug)]
    pub struct NamingContextStub { pub obj: ::orb::ObjectRef, pub deadline: Option<::simnet::SimDuration> }
    impl NamingContextStub {
        pub const REPO_ID: &'static str = "IDL:CosNaming/NamingContext:1.0";
        pub const OP_BIND: &'static str = "bind";
        pub const OP_REBIND: &'static str = "rebind";
        pub const OP_RESOLVE: &'static str = "resolve";
        pub const OP_BIND_GROUP_MEMBER: &'static str = "bind_group_member";
        pub const OP_UNBIND_GROUP_MEMBER: &'static str = "unbind_group_member";
        pub const OP_GROUP_MEMBERS: &'static str = "group_members";
        pub const OP_GROUP_VIEW: &'static str = "group_view";
        pub fn new(obj: ::orb::ObjectRef) -> Self { Self { obj, deadline: None } }
        pub fn from_ior(ior: ::orb::Ior) -> Self { Self::new(::orb::ObjectRef::new(ior)) }
        /// Reply deadline of every call through this reference (`None`: the ORB's).
        pub fn with_deadline(mut self, deadline: Option<::simnet::SimDuration>) -> Self { self.deadline = deadline; self }
        pub fn bind(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, n: &Name, obj: &::orb::Ior) -> ::simnet::SimResult<Result<(), ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "bind", &(n, obj,), self.deadline) }
        pub fn rebind(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, n: &Name, obj: &::orb::Ior) -> ::simnet::SimResult<Result<(), ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "rebind", &(n, obj,), self.deadline) }
        pub fn resolve(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, n: &Name) -> ::simnet::SimResult<Result<::orb::Ior, ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "resolve", &(n,), self.deadline) }
        pub fn bind_group_member(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, group: &Name, member: &::orb::Ior) -> ::simnet::SimResult<Result<(), ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "bind_group_member", &(group, member,), self.deadline) }
        pub fn unbind_group_member(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, group: &Name, member: &::orb::Ior) -> ::simnet::SimResult<Result<(), ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "unbind_group_member", &(group, member,), self.deadline) }
        pub fn group_members(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, group: &Name) -> ::simnet::SimResult<Result<IorSeq, ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "group_members", &(group,), self.deadline) }
        pub fn group_view(&self, orb: &mut ::orb::Orb, ctx: &mut ::simnet::Ctx, group: &Name) -> ::simnet::SimResult<Result<(u64, IorSeq), ::orb::Exception>> { self.obj.call_with_timeout(orb, ctx, "group_view", &(group,), self.deadline) }
    }
    #[allow(non_snake_case, non_camel_case_types, dead_code, clippy::let_unit_value, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
    pub mod LoadBalancedContext {
        ::cdr::cdr_struct!(#[allow(non_camel_case_types, non_snake_case)] EmptyGroup {});
        impl EmptyGroup {
            pub const REPO_ID: &'static str = "IDL:CosNaming/LoadBalancedContext/EmptyGroup:1.0";
            pub fn raise(self) -> ::orb::Exception { ::orb::Exception::User(::orb::UserException::new(Self::REPO_ID, &self)) }
            pub fn extract(e: &::orb::Exception) -> Option<Self> { match e { ::orb::Exception::User(u) if u.id == Self::REPO_ID => u.members().ok(), _ => None } }
        }
    }
}
