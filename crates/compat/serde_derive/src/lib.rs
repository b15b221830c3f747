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

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    /// `#[serde(skip)]`: not written, read as `Default::default()`.
    skip: bool,
}

#[derive(Debug)]
enum Fields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
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
                    Fields::Tuple(count_tuple_fields(g.stream())?)
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

/// Skips one field type: everything up to (but not including) the next comma
/// that sits outside `<...>` and outside any delimiter group.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(token) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *pos += 1;
    }
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
        skip_type(&tokens, &mut pos);
        pos += 1; // the separating comma, if any
        fields.push(Field { name, skip });
    }
    Ok(fields)
}

fn count_tuple_fields(body: TokenStream) -> Result<usize, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos)?;
        if pos >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut pos);
        pos += 1; // the separating comma, if any
        count += 1;
    }
    Ok(count)
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
                Fields::Tuple(count_tuple_fields(g.stream())?)
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

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, serialize_struct_body(fields)),
        Item::Enum { name, variants } => (name, serialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn serialize_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Named(fields) => {
            let entries: Vec<String> = written(fields)
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
    }
}

fn serialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let tag = &v.name;
            match &v.fields {
                Fields::Unit => format!(
                    "{name}::{tag} => \
                     ::serde::Value::Str(::std::string::String::from({tag:?}))"
                ),
                Fields::Tuple(arity) => {
                    let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                    let payload = if *arity == 1 {
                        "::serde::Serialize::to_value(__f0)".to_string()
                    } else {
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                    };
                    format!(
                        "{name}::{tag}({}) => ::serde::Value::Map(::std::vec![\
                         (::std::string::String::from({tag:?}), {payload})])",
                        binds.join(", ")
                    )
                }
                Fields::Named(fields) => {
                    let names: Vec<&str> = written(fields).collect();
                    let entries: Vec<String> = names
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from({f:?}), \
                                 ::serde::Serialize::to_value({f}))"
                            )
                        })
                        .collect();
                    let pattern: Vec<&str> = names.iter().copied().chain([".."]).collect();
                    format!(
                        "{name}::{tag} {{ {} }} => ::serde::Value::Map(::std::vec![\
                         (::std::string::String::from({tag:?}), \
                         ::serde::Value::Map(::std::vec![{}]))])",
                        pattern.join(", "),
                        entries.join(", ")
                    )
                }
            }
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join(",\n"))
}

/// The names of the fields that are written (not `#[serde(skip)]`).
fn written(fields: &[Field]) -> impl Iterator<Item = &str> {
    fields.iter().filter(|f| !f.skip).map(|f| f.name.as_str())
}

/// One field initializer of a generated `from_value`: read from the map
/// `entries`, or `Default::default()` for a skipped field.
fn field_init(field: &Field, entries: &str, context: &str) -> String {
    let f = &field.name;
    if field.skip {
        format!("{f}: ::std::default::Default::default()")
    } else {
        format!("{f}: ::serde::from_field({entries}, {f:?}, {context:?})?")
    }
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
             fn from_value(__value: &::serde::Value) \
             -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("::std::result::Result::Ok({name})"),
        Fields::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| field_init(f, "__entries", name))
                .collect();
            format!(
                "let __entries = __value.as_map().ok_or_else(|| \
                 ::serde::Error::custom(::std::format!(\
                 \"expected map for struct `{name}`, found {{}}\", __value.kind())))?;\n\
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Fields::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__value)?))")
        }
        Fields::Tuple(arity) => {
            let inits: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::from_element(__items, {i}, {name:?})?"))
                .collect();
            format!(
                "let __items = __value.as_seq().ok_or_else(|| \
                 ::serde::Error::custom(::std::format!(\
                 \"expected sequence for `{name}`, found {{}}\", __value.kind())))?;\n\
                 ::std::result::Result::Ok({name}({}))",
                inits.join(", ")
            )
        }
    }
}

fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|v| matches!(v.fields, Fields::Unit))
        .map(|v| {
            let tag = &v.name;
            format!("{tag:?} => ::std::result::Result::Ok({name}::{tag}),")
        })
        .collect();
    let data_arms: Vec<String> = variants
        .iter()
        .filter(|v| !matches!(v.fields, Fields::Unit))
        .map(|v| {
            let tag = &v.name;
            let context = format!("{name}::{tag}");
            let build = match &v.fields {
                Fields::Unit => unreachable!("filtered above"),
                Fields::Tuple(1) => format!(
                    "::std::result::Result::Ok({name}::{tag}(\
                     ::serde::Deserialize::from_value(__payload)?))"
                ),
                Fields::Tuple(arity) => {
                    let inits: Vec<String> = (0..*arity)
                        .map(|i| format!("::serde::from_element(__items, {i}, {context:?})?"))
                        .collect();
                    format!(
                        "{{ let __items = __payload.as_seq().ok_or_else(|| \
                         ::serde::Error::custom(\"expected sequence for `{context}`\"))?;\n\
                         ::std::result::Result::Ok({name}::{tag}({})) }}",
                        inits.join(", ")
                    )
                }
                Fields::Named(fields) => {
                    let inits: Vec<String> = fields
                        .iter()
                        .map(|f| field_init(f, "__fields", &context))
                        .collect();
                    format!(
                        "{{ let __fields = __payload.as_map().ok_or_else(|| \
                         ::serde::Error::custom(\"expected map for `{context}`\"))?;\n\
                         ::std::result::Result::Ok({name}::{tag} {{ {} }}) }}",
                        inits.join(", ")
                    )
                }
            };
            format!("{tag:?} => {build},")
        })
        .collect();
    format!(
        "match __value {{\n\
             ::serde::Value::Str(__tag) => match __tag.as_str() {{\n\
                 {unit}\n\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown unit variant `{{__other}}` of enum `{name}`\"))),\n\
             }},\n\
             ::serde::Value::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __payload) = &__entries[0];\n\
                 let _ = __payload;\n\
                 match __tag.as_str() {{\n\
                     {data}\n\
                     __other => ::std::result::Result::Err(::serde::Error::custom(\
                     ::std::format!(\"unknown variant `{{__other}}` of enum `{name}`\"))),\n\
                 }}\n\
             }},\n\
             __other => ::std::result::Result::Err(::serde::Error::custom(\
             ::std::format!(\"expected enum `{name}`, found {{}}\", __other.kind()))),\n\
         }}",
        unit = unit_arms.join("\n"),
        data = data_arms.join("\n"),
    )
}
