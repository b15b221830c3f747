//! Derive macros for the offline `serde` subset.
//!
//! Implemented directly on `proc_macro` token trees (no `syn`/`quote`, which
//! are unavailable offline). Supports the shapes this workspace actually
//! derives on: non-generic named-field structs, tuple structs, unit structs,
//! and enums whose variants are unit, tuple or struct-like. Newtype (1-field
//! tuple) structs and variants serialize transparently, matching upstream
//! serde's externally-tagged representation.
//!
//! The one supported attribute is `#[serde(skip)]` on a named field: the
//! field is left out on write and set to `Default::default()` on read, as
//! upstream does. Any other `serde` attribute is a compile error rather
//! than silently ignored.
//!
//! The generated code goes straight between fields and JSON text: a
//! `Serialize` impl pushes each member's key and writes its value, and a
//! `Deserialize` impl walks the object's members with the
//! `serde::Deserializer` cursor. A reader ignores unknown members, keeps the
//! first of duplicated ones (checking and skipping the rest), fails on a
//! missing member that is not `#[serde(skip)]` (`Option` fields included),
//! reads skipped members as `Default` even when present, and ignores array
//! elements past a tuple's arity.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// `#[serde(skip)]`: not written, read as `Default::default()`.
    skip: bool,
}

#[derive(Debug)]
enum Fields {
    Unit,
    Named(Vec<Field>),
    /// The fields' types.
    Tuple(Vec<String>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives the offline `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives the offline `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .expect("derive macro generated invalid Rust"),
        Err(message) => format!("::std::compile_error!({message:?});")
            .parse()
            .expect("compile_error! is valid Rust"),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes_and_visibility(&tokens, &mut pos)?;

    let keyword = expect_ident(&tokens, &mut pos)?;
    let name = expect_ident(&tokens, &mut pos)?;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde derive (offline subset) does not support generic type `{name}`"
        ));
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_fields(g.stream())?)
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unexpected token after `struct {name}`: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("unexpected token after `enum {name}`: {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!(
            "serde derive supports structs and enums, found `{other}`"
        )),
    }
}

/// Skips outer attributes and a visibility qualifier where `#[serde(skip)]`
/// is not allowed (items, variants, tuple fields).
fn skip_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) -> Result<(), String> {
    if parse_attributes_and_visibility(tokens, pos)? {
        return Err("`#[serde(skip)]` is supported on named fields only".to_string());
    }
    Ok(())
}

/// Skips outer attributes and a visibility qualifier, returning whether one
/// of the attributes was `#[serde(skip)]`.
fn parse_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) -> Result<bool, String> {
    let mut skip = false;
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(attribute)) = tokens.get(*pos + 1) {
                    skip |= is_serde_skip(attribute)?;
                }
                *pos += 2; // `#` and the following `[...]` group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1; // `pub(crate)` etc.
                }
            }
            _ => return Ok(skip),
        }
    }
}

/// `true` for the attribute body `serde(skip)`, `false` for a non-`serde`
/// attribute (docs, lints, other derives' helpers), an error for any other
/// `serde(...)` body.
fn is_serde_skip(attribute: &Group) -> Result<bool, String> {
    let tokens: Vec<TokenTree> = attribute.stream().into_iter().collect();
    if !matches!(tokens.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
        return Ok(false);
    }
    match tokens.as_slice() {
        [_, TokenTree::Group(args)]
            if args.delimiter() == Delimiter::Parenthesis
                && args.stream().to_string() == "skip" =>
        {
            Ok(true)
        }
        _ => Err(format!(
            "serde derive (offline subset) supports only `#[serde(skip)]`, found `#[{}]`",
            attribute.stream()
        )),
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> Result<String, String> {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(i)) => {
            *pos += 1;
            Ok(i.to_string().trim_start_matches("r#").to_string())
        }
        other => Err(format!("expected identifier, found {other:?}")),
    }
}

/// Takes one field type: everything up to (but not including) the next comma
/// that sits outside `<...>` and outside any delimiter group.
fn take_type(tokens: &[TokenTree], pos: &mut usize) -> String {
    let start = *pos;
    let mut angle_depth = 0i32;
    while let Some(token) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        *pos += 1;
    }
    tokens[start..*pos]
        .iter()
        .cloned()
        .collect::<TokenStream>()
        .to_string()
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let skip = parse_attributes_and_visibility(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos)?;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        let ty = take_type(&tokens, &mut pos);
        pos += 1; // the separating comma, if any
        fields.push(Field { name, ty, skip });
    }
    Ok(fields)
}

fn parse_tuple_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut types = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        types.push(take_type(&tokens, &mut pos));
        pos += 1; // the separating comma, if any
    }
    Ok(types)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos)?;
        let fields = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Fields::Tuple(parse_tuple_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            _ => Fields::Unit,
        };
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "serde derive (offline subset) does not support discriminants (variant `{name}`)"
                ));
            }
            None => {}
            other => {
                return Err(format!(
                    "unexpected token after variant `{name}`: {other:?}"
                ))
            }
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// A Rust string literal holding `text`.
fn literal(text: &str) -> String {
    format!("{text:?}")
}

/// The names of the fields that are written (not `#[serde(skip)]`).
fn written(fields: &[Field]) -> impl Iterator<Item = &str> {
    fields.iter().filter(|f| !f.skip).map(|f| f.name.as_str())
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, serialize_struct_body(fields)),
        Item::Enum { name, variants } => (name, serialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n\
         }}"
    )
}

/// Statements writing `values` (expressions of references) as a JSON
/// array, after `prefix` and before `suffix`.
fn serialize_seq(prefix: &str, values: &[String], suffix: &str) -> String {
    let items: Vec<String> = values
        .iter()
        .map(|value| format!("::serde::Serialize::serialize({value}, __out);"))
        .collect();
    format!(
        "__out.push_str({});\n{}\n__out.push_str({});",
        literal(&format!("{prefix}[")),
        items.join("\n__out.push(',');\n"),
        literal(&format!("]{suffix}"))
    )
}

/// Statements writing the written fields as a JSON object, after `prefix`
/// and before `suffix`; `access` turns a field name into a reference to
/// its value.
fn serialize_map(
    prefix: &str,
    fields: &[Field],
    suffix: &str,
    access: fn(&str) -> String,
) -> String {
    let mut statements = Vec::new();
    let mut pending = format!("{prefix}{{");
    for (i, f) in written(fields).enumerate() {
        let separator = if i == 0 { "" } else { "," };
        pending.push_str(&format!("{separator}\"{f}\":"));
        statements.push(format!(
            "__out.push_str({});\n::serde::Serialize::serialize({}, __out);",
            literal(&pending),
            access(f)
        ));
        pending.clear();
    }
    pending.push_str(&format!("}}{suffix}"));
    statements.push(format!("__out.push_str({});", literal(&pending)));
    statements.join("\n")
}

fn serialize_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "__out.push_str(\"null\");".to_string(),
        Fields::Named(fields) => serialize_map("", fields, "", |f| format!("&self.{f}")),
        Fields::Tuple(types) if types.len() == 1 => {
            "::serde::Serialize::serialize(&self.0, __out);".to_string()
        }
        Fields::Tuple(types) => {
            let values: Vec<String> = (0..types.len()).map(|i| format!("&self.{i}")).collect();
            serialize_seq("", &values, "")
        }
    }
}

fn serialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let tag = &v.name;
            let open = format!("{{\"{tag}\":");
            match &v.fields {
                Fields::Unit => format!(
                    "{name}::{tag} => __out.push_str({}),",
                    literal(&format!("\"{tag}\""))
                ),
                Fields::Tuple(types) => {
                    let binds: Vec<String> = (0..types.len()).map(|i| format!("__f{i}")).collect();
                    let body = if types.len() == 1 {
                        format!(
                            "__out.push_str({});\n\
                             ::serde::Serialize::serialize(__f0, __out);\n\
                             __out.push('}}');",
                            literal(&open)
                        )
                    } else {
                        serialize_seq(&open, &binds, "}")
                    };
                    format!("{name}::{tag}({}) => {{\n{body}\n}}", binds.join(", "))
                }
                Fields::Named(fields) => {
                    let pattern: Vec<&str> = written(fields).chain([".."]).collect();
                    format!(
                        "{name}::{tag} {{ {} }} => {{\n{}\n}}",
                        pattern.join(", "),
                        serialize_map(&open, fields, "}", str::to_string)
                    )
                }
            }
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join("\n"))
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, deserialize_struct_body(name, fields)),
        Item::Enum { name, variants } => (name, deserialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__de: &mut ::serde::Deserializer<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}

/// A block reading a JSON object into `constructor { fields }`: the first
/// occurrence of each written field's member is read, every other member
/// is checked and skipped.
fn deserialize_map(constructor: &str, fields: &[Field], context: &str) -> String {
    let slots: Vec<String> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.skip)
        .map(|(i, f)| {
            format!(
                "let mut __v{i}: ::std::option::Option<{}> = ::std::option::Option::None;",
                f.ty
            )
        })
        .collect();
    let arms: Vec<String> = fields
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.skip)
        .map(|(i, f)| {
            format!(
                "{} if __v{i}.is_none() => {{ __v{i} = ::std::option::Option::Some(\
                 ::serde::Deserialize::deserialize(__de)\
                 .map_err(|__e| __e.within({}))?); }}",
                literal(&f.name),
                literal(&format!("field `{}` of `{context}`", f.name))
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let n = &f.name;
            if f.skip {
                format!("{n}: ::std::default::Default::default()")
            } else {
                format!(
                    "{n}: __v{i}.ok_or_else(|| ::serde::Error::custom({}))?",
                    literal(&format!("missing field `{n}` in `{context}`"))
                )
            }
        })
        .collect();
    format!(
        "{{\n{}\n\
         __de.begin_map({})?;\n\
         while let ::std::option::Option::Some(__key) = __de.next_key()? {{\n\
             match &*__key {{\n{}\n_ => __de.skip_value()?,\n}}\n\
         }}\n\
         {constructor} {{ {} }}\n\
         }}",
        slots.join("\n"),
        literal(&format!("map for `{context}`")),
        arms.join("\n"),
        inits.join(", ")
    )
}

/// A block reading a JSON array into `constructor(elements)`; elements past
/// the arity are checked and skipped.
fn deserialize_seq(constructor: &str, types: &[String], context: &str) -> String {
    let reads: Vec<String> = types
        .iter()
        .enumerate()
        .map(|(i, ty)| {
            format!(
                "let __v{i}: {ty} = __de.element({i}, {})?;",
                literal(context)
            )
        })
        .collect();
    let values: Vec<String> = (0..types.len()).map(|i| format!("__v{i}")).collect();
    format!(
        "{{\n__de.begin_seq({})?;\n{}\n__de.skip_elements()?;\n{constructor}({})\n}}",
        literal(&format!("sequence for `{context}`")),
        reads.join("\n"),
        values.join(", ")
    )
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    let value = match fields {
        Fields::Unit => format!("{{ __de.skip_value()?; {name} }}"),
        Fields::Named(fields) => deserialize_map(name, fields, name),
        Fields::Tuple(types) if types.len() == 1 => {
            format!("{name}(::serde::Deserialize::deserialize(__de)?)")
        }
        Fields::Tuple(types) => deserialize_seq(name, types, name),
    };
    format!("::std::result::Result::Ok({value})")
}

fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let tag = &v.name;
            let path = format!("{name}::{tag}");
            let (payload, value) = match &v.fields {
                Fields::Unit => (false, path),
                Fields::Tuple(types) if types.len() == 1 => (
                    true,
                    format!("{path}(::serde::Deserialize::deserialize(__de)?)"),
                ),
                Fields::Tuple(types) => (true, deserialize_seq(&path, types, &path)),
                Fields::Named(fields) => (true, deserialize_map(&path, fields, &path)),
            };
            format!("({}, {payload}) => {value},", literal(tag))
        })
        .collect();
    let expected = literal(&format!("enum `{name}`"));
    format!(
        "let (__tag, __payload) = __de.enum_tag({expected})?;\n\
         let __value = match (&*__tag, __payload) {{\n\
             {}\n\
             (__other, false) => return ::std::result::Result::Err(::serde::Error::custom(\
             ::std::format!(\"unknown unit variant `{{__other}}` of enum `{name}`\"))),\n\
             (__other, true) => return ::std::result::Result::Err(::serde::Error::custom(\
             ::std::format!(\"unknown variant `{{__other}}` of enum `{name}`\"))),\n\
         }};\n\
         if __payload {{\n\
             __de.end_enum({expected})?;\n\
         }}\n\
         ::std::result::Result::Ok(__value)",
        arms.join("\n")
    )
}
