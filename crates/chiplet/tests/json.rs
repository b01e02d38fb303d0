//! The codec surface the wire frames, state files and `--json` records
//! are built on: conversions, the exact integer reader, the typed field
//! readers and their messages, the string escaper and the float rule.

use dqec_chiplet::json::{parse, Float, Json, Quoted};

#[test]
fn conversions_and_obj_build_the_same_value_as_the_variants() {
    let built = Json::obj([
        ("id", 7u64.into()),
        ("d", 5u32.into()),
        ("shots", 4000usize.into()),
        ("x", (-3i32).into()),
        ("gauge", (-1i64).into()),
        ("p", 0.003.into()),
        ("name", "uf".into()),
        ("owned", String::from("s").into()),
        ("rounds", Option::<u32>::None.into()),
        ("precision", Some(0.1).into()),
    ]);
    let spelled = Json::Obj(vec![
        ("id".into(), Json::Num(7.0)),
        ("d".into(), Json::Num(5.0)),
        ("shots".into(), Json::Num(4000.0)),
        ("x".into(), Json::Num(-3.0)),
        ("gauge".into(), Json::Num(-1.0)),
        ("p".into(), Json::Num(0.003)),
        ("name".into(), Json::Str("uf".into())),
        ("owned".into(), Json::Str("s".into())),
        ("rounds".into(), Json::Null),
        ("precision".into(), Json::Num(0.1)),
    ]);
    assert_eq!(built, spelled);
}

#[test]
fn integer_reader_never_rounds_truncates_or_wraps() {
    assert_eq!(Json::Num(-3.0).as_int::<i32>(), Some(-3));
    assert_eq!(Json::Num(1.5).as_int::<i32>(), None);
    assert_eq!(Json::Num(2e300).as_int::<i32>(), None);
    assert_eq!(Json::Num(2147483648.0).as_int::<i32>(), None);
    assert_eq!(Json::Num(-1.0).as_int::<u64>(), None);
    assert_eq!(Json::Num(-1.0).as_u64(), None);
    assert_eq!(Json::Num(2f64.powi(53)).as_u64(), Some(1 << 53));
    assert_eq!(Json::Num(2f64.powi(54)).as_u64(), None);
    assert_eq!(Json::Str("1".into()).as_int::<i64>(), None);
}

#[test]
fn field_readers_name_the_field_and_the_fault() {
    let doc = parse(r#"{"id":9,"d":4294967296,"p":"high","rounds":null,"a":[1]}"#).unwrap();
    assert_eq!(doc.uint_field::<u64>("id"), Ok(9));
    assert_eq!(doc.uint_field::<u32>("d").unwrap_err(), "d out of range");
    assert_eq!(
        doc.uint_field::<u64>("seed").unwrap_err(),
        "missing or non-integer field \"seed\""
    );
    assert_eq!(
        doc.f64_field("p").unwrap_err(),
        "missing or non-numeric field \"p\""
    );
    assert_eq!(
        doc.str_field("op").unwrap_err(),
        "missing string field \"op\""
    );
    assert_eq!(
        doc.arr_field("states").unwrap_err(),
        "missing array field \"states\""
    );
    assert_eq!(doc.arr_field("a").unwrap().len(), 1);
    // Absent and null read alike.
    assert_eq!(doc.opt("rounds"), None);
    assert_eq!(doc.opt("absent"), None);
    assert_eq!(doc.opt("id"), Some(&Json::Num(9.0)));
}

#[test]
fn escaper_and_float_rule_emit_valid_tokens() {
    let nasty = "q\"b\\n\nr\rt\tc\u{1}é";
    let literal = Quoted(nasty).to_string();
    assert_eq!(literal, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001é\"");
    assert_eq!(parse(&literal).unwrap(), Json::Str(nasty.into()));
    assert_eq!(Float(0.0).to_string(), "0.0");
    assert_eq!(Float(1e-3).to_string(), "0.001");
    assert_eq!(Float(f64::NAN).to_string(), "null");
    assert_eq!(Float(f64::INFINITY).to_string(), "null");
    // A non-finite number renders as a token that parses.
    let text = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::NEG_INFINITY)]).render();
    assert_eq!(text, "[null,null]");
    assert!(parse(&text).is_ok());
}
