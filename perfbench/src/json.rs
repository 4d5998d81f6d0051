//! A minimal JSON object writer for the tool's one-line results.

/// An object under construction; keys keep insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON; non-finite values have no JSON form.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn num(&mut self, key: &str, value: f64) {
        self.fields.push((key.to_string(), number(value)));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.fields.push((key.to_string(), quote(value)));
    }

    pub fn list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.fields
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    pub fn obj(&mut self, key: &str, value: Obj) {
        self.fields.push((key.to_string(), value.render()));
    }

    pub fn render(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", quote(k)))
            .collect();
        format!("{{{}}}", items.join(","))
    }
}
