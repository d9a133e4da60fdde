//! Offline shim for `serde_derive`. Parses the item's token stream by hand
//! (no `syn`/`quote` available offline) and emits `to_json` implementations
//! for the serde shim's tree-model `Serialize` trait.
//!
//! Supported shapes — exactly what this workspace derives on:
//! - named-field structs (with `#[serde(flatten)]` on a field)
//! - newtype (single-field tuple) structs
//! - enums with unit, newtype, and struct variants; externally tagged by
//!   default, internally tagged with `#[serde(tag = "...")]`, and
//!   `#[serde(rename_all = "snake_case")]` on the container
//!
//! Anything else (generics, unsupported attributes) panics at compile time
//! with a pointer to extend this shim.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---------------------------------------------------------------------------
// Item model
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SerdeAttrs {
    tag: Option<String>,
    rename_all: bool,
    flatten: bool,
}

struct Field {
    name: String,
    flatten: bool,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Shape {
    NamedStruct(Vec<Field>),
    NewtypeStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: SerdeAttrs,
    shape: Shape,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn take_attrs(toks: &[TokenTree], i: &mut usize) -> SerdeAttrs {
    let mut out = SerdeAttrs::default();
    loop {
        match (toks.get(*i), toks.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                parse_attr_group(g.stream(), &mut out);
                *i += 2;
            }
            _ => return out,
        }
    }
}

fn parse_attr_group(stream: TokenStream, out: &mut SerdeAttrs) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    match toks.first() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return, // doc comment, derive, repr, ... — not ours
    }
    let inner: Vec<TokenTree> = match toks.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().into_iter().collect()
        }
        _ => panic!("serde shim: malformed #[serde(...)] attribute"),
    };
    let mut j = 0;
    while j < inner.len() {
        let key = match &inner[j] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("serde shim: unexpected token in #[serde(...)]: {t}"),
        };
        j += 1;
        let val = match inner.get(j) {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                j += 1;
                let lit = match &inner[j] {
                    TokenTree::Literal(l) => l.to_string(),
                    t => panic!("serde shim: expected literal after `{key} =`, got {t}"),
                };
                j += 1;
                Some(lit.trim_matches('"').to_string())
            }
            _ => None,
        };
        if matches!(inner.get(j), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            j += 1;
        }
        match (key.as_str(), val) {
            ("tag", Some(v)) => out.tag = Some(v),
            ("rename_all", Some(v)) => {
                assert!(
                    v == "snake_case",
                    "serde shim: only rename_all = \"snake_case\" is supported, got {v:?}"
                );
                out.rename_all = true;
            }
            ("flatten", None) => out.flatten = true,
            (k, _) => panic!(
                "serde shim: unsupported #[serde({k})] — extend shims/serde_derive to cover it"
            ),
        }
    }
}

fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if matches!(toks.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Skips one type, stopping after the comma that ends it (or at end of
/// tokens). Commas inside `<...>` belong to the type; commas inside
/// parens/brackets are invisible here because those are single `Group` trees.
fn skip_type_and_comma(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i64;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let attrs = take_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_vis(&toks, &mut i);
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("serde shim: expected field name, got {t}"),
        };
        i += 1;
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            t => panic!("serde shim: expected `:` after field `{name}`, got {t}"),
        }
        skip_type_and_comma(&toks, &mut i);
        fields.push(Field { name, flatten: attrs.flatten });
    }
    fields
}

fn tuple_arity(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut arity = 0;
    while i < toks.len() {
        skip_type_and_comma(&toks, &mut i);
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        let _attrs = take_attrs(&toks, &mut i); // doc comments etc.
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("serde shim: expected variant name, got {t}"),
        };
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                assert!(
                    arity == 1,
                    "serde shim: tuple variant `{name}` has {arity} fields; only newtype variants are supported"
                );
                i += 1;
                VariantKind::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                i += 1;
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = take_attrs(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let kw = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("serde shim: expected `struct` or `enum`, got {t}"),
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("serde shim: expected item name, got {t}"),
    };
    i += 1;
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim: derive on generic type `{name}` is not supported");
    }
    let shape = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = tuple_arity(g.stream());
                assert!(
                    arity == 1,
                    "serde shim: tuple struct `{name}` has {arity} fields; only newtype structs are supported"
                );
                Shape::NewtypeStruct
            }
            t => panic!("serde shim: unsupported struct body for `{name}`: {t:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            t => panic!("serde shim: unsupported enum body for `{name}`: {t:?}"),
        },
        other => panic!("serde shim: cannot derive on `{other}` items"),
    };
    Item { name, attrs, shape }
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

/// serde's `rename_all = "snake_case"` transform for PascalCase names.
fn snake(s: &str) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn variant_tag(item: &Item, variant: &str) -> String {
    if item.attrs.rename_all {
        snake(variant)
    } else {
        variant.to_string()
    }
}

const VALUE: &str = "::serde::json::Value";

fn ser_named_fields(fields: &[Field], access_prefix: &str) -> String {
    let mut s = String::new();
    for f in fields {
        let n = &f.name;
        let access = format!("{access_prefix}{n}");
        if f.flatten {
            s.push_str(&format!(
                "match ::serde::Serialize::to_json(&{access}) {{ \
                   {VALUE}::Object(m) => obj.extend(m), \
                   other => obj.push((\"{n}\".to_string(), other)), \
                 }};\n"
            ));
        } else {
            s.push_str(&format!(
                "obj.push((\"{n}\".to_string(), ::serde::Serialize::to_json(&{access})));\n"
            ));
        }
    }
    s
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct(fields) => {
            let pushes = ser_named_fields(fields, "self.");
            format!(
                "let mut obj: Vec<(String, {VALUE})> = Vec::new();\n{pushes}{VALUE}::Object(obj)"
            )
        }
        Shape::NewtypeStruct => "::serde::Serialize::to_json(&self.0)".to_string(),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tag_str = variant_tag(item, vn);
                let arm = match (&v.kind, &item.attrs.tag) {
                    (VariantKind::Unit, None) => {
                        format!("Self::{vn} => {VALUE}::String(\"{tag_str}\".to_string()),\n")
                    }
                    (VariantKind::Unit, Some(tag)) => format!(
                        "Self::{vn} => {VALUE}::Object(vec![(\"{tag}\".to_string(), \
                         {VALUE}::String(\"{tag_str}\".to_string()))]),\n"
                    ),
                    (VariantKind::Newtype, None) => format!(
                        "Self::{vn}(x0) => {VALUE}::Object(vec![(\"{tag_str}\".to_string(), \
                         ::serde::Serialize::to_json(x0))]),\n"
                    ),
                    (VariantKind::Newtype, Some(_)) => {
                        panic!("serde shim: newtype variant `{vn}` cannot be internally tagged")
                    }
                    (VariantKind::Struct(fields), tag) => {
                        let pat: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let pat = pat.join(", ");
                        let pushes = ser_named_fields(fields, "*");
                        let head = match tag {
                            Some(tag) => format!(
                                "obj.push((\"{tag}\".to_string(), \
                                 {VALUE}::String(\"{tag_str}\".to_string())));\n"
                            ),
                            None => String::new(),
                        };
                        let close = match tag {
                            Some(_) => format!("{VALUE}::Object(obj)"),
                            None => format!(
                                "{VALUE}::Object(vec![(\"{tag_str}\".to_string(), \
                                 {VALUE}::Object(obj))])"
                            ),
                        };
                        format!(
                            "Self::{vn} {{ {pat} }} => {{ \
                               let mut obj: Vec<(String, {VALUE})> = Vec::new(); \
                               {head}{pushes}{close} \
                             }},\n"
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_json(&self) -> {VALUE} {{\n{body}\n}}\n\
         }}\n"
    )
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = gen_serialize(&item);
    code.parse().unwrap_or_else(|e| {
        panic!("serde shim: generated Serialize for `{}` failed to parse: {e}", item.name)
    })
}
