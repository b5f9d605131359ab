//! Ordered, flat, merge-don't-clobber JSON recording — used by `hotpath`,
//! which writes `BENCH_hotpath.json`, and by `adversity --metrics-out`.
//! A run re-measures only its own keys; merging over the existing file
//! preserves every key it did not re-measure, so partial runs never
//! erase other arms' numbers.

use std::path::Path;

/// A top-level value: a raw scalar/string token, or a one-level group of
/// named numbers (an arm set).
#[derive(Clone, Debug)]
pub enum Val {
    /// A pre-rendered scalar token (number or quoted string).
    Raw(String),
    /// A one-level `{name: number, ...}` group.
    Obj(Vec<(String, String)>),
}

/// Ordered flat JSON document (the only shape this recorder reads/writes).
pub struct Json(pub Vec<(String, Val)>);

impl Default for Json {
    fn default() -> Self {
        Self::new()
    }
}

impl Json {
    /// An empty document.
    pub fn new() -> Self {
        Json(Vec::new())
    }

    /// Sets `key` to `v`, replacing an existing entry in place.
    pub fn set(&mut self, key: &str, v: Val) {
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = v,
            None => self.0.push((key.to_string(), v)),
        }
    }

    /// A numeric scalar, one decimal place.
    pub fn num(&mut self, key: &str, v: f64) {
        self.set(key, Val::Raw(format!("{v:.1}")));
    }

    /// An integer scalar (e.g. a core count) — no trailing `.0`.
    pub fn int(&mut self, key: &str, v: u64) {
        self.set(key, Val::Raw(format!("{v}")));
    }

    /// A string scalar (no escapes supported).
    pub fn str(&mut self, key: &str, v: &str) {
        self.set(key, Val::Raw(format!("\"{v}\"")));
    }

    /// A one-level group of named numbers.
    pub fn obj(&mut self, key: &str, fields: &[(&str, f64)]) {
        self.set(
            key,
            Val::Obj(
                fields
                    .iter()
                    .map(|&(k, v)| (k.to_string(), format!("{v:.1}")))
                    .collect(),
            ),
        );
    }

    /// Renders the document (two-space indent, one key per line).
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| match v {
                Val::Raw(s) => format!("  \"{k}\": {s}"),
                Val::Obj(fields) => {
                    let inner: Vec<String> = fields
                        .iter()
                        .map(|(fk, fv)| format!("\"{fk}\": {fv}"))
                        .collect();
                    format!("  \"{k}\": {{{}}}", inner.join(", "))
                }
            })
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Merges this run's entries over `existing`: scalars replace,
    /// grouped arms merge field-by-field (fields not re-measured
    /// survive), unknown keys from the previous file are preserved in
    /// their original order.
    pub fn merge_over(self, mut existing: Json) -> Json {
        for (key, new_val) in self.0 {
            let slot = existing.0.iter_mut().find(|(k, _)| *k == key);
            match (slot, new_val) {
                (Some((_, Val::Obj(old))), Val::Obj(new)) => {
                    for (fk, fv) in new {
                        match old.iter_mut().find(|(k, _)| *k == fk) {
                            Some(f) => f.1 = fv,
                            None => old.push((fk, fv)),
                        }
                    }
                }
                (Some(slot), v) => slot.1 = v,
                (None, v) => existing.0.push((key, v)),
            }
        }
        existing
    }

    /// Parses a document this recorder previously rendered (flat keys,
    /// one-level groups, no escaped strings). Returns `None` on any shape
    /// it does not recognize — the caller then starts fresh.
    pub fn parse(text: &str) -> Option<Json> {
        let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut out = Json::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
            if rest.is_empty() {
                break;
            }
            let (key, after) = parse_key(rest)?;
            rest = after.trim_start();
            if let Some(obj_rest) = rest.strip_prefix('{') {
                let end = obj_rest.find('}')?;
                let mut fields = Vec::new();
                for part in obj_rest[..end].split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    let (fk, fv) = parse_key(part)?;
                    fields.push((fk, fv.trim().to_string()));
                }
                out.0.push((key, Val::Obj(fields)));
                rest = obj_rest[end + 1..].trim_start();
            } else if let Some(str_rest) = rest.strip_prefix('"') {
                let end = str_rest.find('"')?;
                out.0
                    .push((key, Val::Raw(format!("\"{}\"", &str_rest[..end]))));
                rest = str_rest[end + 1..].trim_start();
            } else {
                let end = rest.find(',').unwrap_or(rest.len());
                out.0.push((key, Val::Raw(rest[..end].trim().to_string())));
                rest = &rest[end..];
            }
        }
        Some(out)
    }

    /// Merges this document over whatever is at `path` (starting fresh
    /// if the file is absent or unparseable, with a warning) and writes
    /// the result back.
    pub fn merge_into_file(self, path: &Path) {
        let merged = match std::fs::read_to_string(path)
            .ok()
            .as_deref()
            .map(Json::parse)
        {
            Some(Some(existing)) => self.merge_over(existing),
            Some(None) => {
                eprintln!(
                    "warning: {} exists but did not parse; rewriting from this run only",
                    path.display()
                );
                self
            }
            None => self,
        };
        std::fs::write(path, merged.render()).expect("write baseline json");
    }
}

/// Splits `"key": value…` into the key and the text after the colon.
fn parse_key(text: &str) -> Option<(String, &str)> {
    let rest = text.strip_prefix('"')?;
    let end = rest.find('"')?;
    let key = rest[..end].to_string();
    let after = rest[end + 1..].trim_start().strip_prefix(':')?;
    Some((key, after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_preserves_unmeasured_keys_and_order() {
        let mut old = Json::new();
        old.num("a", 1.0);
        old.obj("arms", &[("x", 1.0), ("y", 2.0)]);
        old.str("note", "old");

        let mut new = Json::new();
        new.obj("arms", &[("y", 9.0), ("z", 3.0)]);
        new.num("b", 4.0);

        let merged = new.merge_over(old);
        let text = merged.render();
        let back = Json::parse(&text).expect("round-trips");
        assert_eq!(
            back.0.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["a", "arms", "note", "b"]
        );
        match &back.0[1].1 {
            Val::Obj(fields) => {
                assert_eq!(
                    fields
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect::<Vec<_>>(),
                    vec![("x", "1.0"), ("y", "9.0"), ("z", "3.0")]
                );
            }
            other => panic!("arms became {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_unknown_shapes() {
        assert!(Json::parse("[1, 2]").is_none());
        assert!(Json::parse("{\"nested\": {\"deep\": {\"x\": 1}}}").is_none());
    }
}
