//! A Skolem identity is a function of its class and key.
//!
//! * **Golden ids.** `skolem_id` is persisted in every journalled target, so
//!   its values are pinned here: a change to the hash, the finaliser or the
//!   canonical byte walk renumbers stored targets and must fail this file.
//! * **Order and split do not matter.** Any permutation of a key multiset,
//!   minted through one to eight factories over any split and merged, gives
//!   exactly the identities and memo one factory gives.
//! * **Collisions are errors.** A derived identity already held by a seeded
//!   object under another key is a [`ModelError::SkolemCollision`] — when
//!   minted, and when two workers' factories merge.

use proptest::prelude::*;
use wol_model::{
    skolem_id, ClassName, Instance, KeyExpr, KeySpec, ModelError, Oid, SkolemFactory, Value,
};

fn id(class: &str, key: &Value) -> u64 {
    skolem_id(&ClassName::new(class), key)
}

#[test]
fn golden_identities_are_pinned() {
    let golden: Vec<(&str, Value, u64)> = vec![
        ("CountryT", Value::str("France"), 0x3D4F_F11A_15A1_BC65),
        // The same key under another class is another identity.
        ("CityT", Value::str("France"), 0x5D57_53AE_BDDE_831C),
        ("CountryT", Value::int(-42), 0x2939_1369_2EEE_5BD8),
        ("CountryT", Value::real(2.5), 0x2C2D_530C_13C6_D41D),
        ("CountryT", Value::bool(true), 0x5DB6_64F9_43DB_94C7),
        (
            "CityT",
            Value::record([
                ("name", Value::str("Paris")),
                ("country", Value::record([("name", Value::str("France"))])),
            ]),
            0x5BC6_D3A0_3162_38B6,
        ),
        (
            "MarkerD",
            Value::record([
                ("clone", Value::oid(Oid::new(ClassName::new("CloneS"), 7))),
                ("name", Value::str("m1")),
            ]),
            0x209F_DFDF_AEFB_A70D,
        ),
        (
            "GroupT",
            Value::list([
                Value::set([Value::int(1), Value::int(2)]),
                Value::tag("euro"),
            ]),
            0x189B_A234_2D40_1B1E,
        ),
    ];
    for (class, key, expected) in &golden {
        assert_eq!(id(class, key), *expected, "Mk_{class}({key:?})");
        assert!(*expected < 1 << 63, "the high bit stays clear");
        let mut factory = SkolemFactory::new();
        let oid = factory.mk(&ClassName::new(*class), key).unwrap();
        assert_eq!(oid, Oid::new(ClassName::new(*class), *expected));
    }
}

/// The specification spelled out byte by byte, independently of the
/// implementation: FNV-1a 64 over the length-prefixed class name, the
/// string tag `0x06` and the length-prefixed key, then the MurmurHash3
/// finaliser and the high bit cleared.
#[test]
fn the_identity_is_the_specified_hash() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&8u64.to_le_bytes());
    bytes.extend_from_slice(b"CountryT");
    bytes.push(0x06);
    bytes.extend_from_slice(&6u64.to_le_bytes());
    bytes.extend_from_slice(b"France");
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    assert_eq!(id("CountryT", &Value::str("France")), h & (u64::MAX >> 1));
}

/// One key of a small mixed-kind domain, so multisets repeat keys.
fn key(gen: &mut proptest::Gen) -> Value {
    let n = gen.usize_in(0, 6) as i64;
    match gen.usize_in(0, 5) {
        0 => Value::str(format!("k{n}")),
        1 => Value::int(n),
        2 => Value::real(n as f64 / 2.0),
        3 => Value::record([("name", Value::str(format!("k{n}"))), ("n", Value::int(n))]),
        _ => Value::record([(
            "source",
            Value::oid(Oid::new(ClassName::new("SourceS"), n as u64)),
        )]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_order_and_any_split_mint_what_one_factory_mints(seed in 0u64..u64::MAX) {
        let mut gen = proptest::Gen::new(seed);
        let classes = [ClassName::new("T"), ClassName::new("U")];
        let mut keys: Vec<(ClassName, Value)> = (0..gen.usize_in(1, 40))
            .map(|_| (classes[gen.usize_in(0, 2)].clone(), key(&mut gen)))
            .collect();
        let mut one = SkolemFactory::new();
        let minted: Vec<Oid> = keys.iter().map(|(c, k)| one.mk(c, k).unwrap()).collect();
        for ((class, key), oid) in keys.iter().zip(&minted) {
            prop_assert_eq!(oid.id(), skolem_id(class, key));
        }

        // Shuffle, cut into 1–8 contiguous runs, mint each run on a factory
        // of its own, and merge the factories in run order.
        for i in (1..keys.len()).rev() {
            keys.swap(i, gen.usize_in(0, i + 1));
        }
        let workers = gen.usize_in(1, 9);
        let mut cuts: Vec<usize> = (0..workers - 1).map(|_| gen.usize_in(0, keys.len() + 1)).collect();
        cuts.push(0);
        cuts.push(keys.len());
        cuts.sort_unstable();
        let mut merged = SkolemFactory::new();
        for run in cuts.windows(2) {
            let mut worker = SkolemFactory::new();
            for (class, key) in &keys[run[0]..run[1]] {
                let oid = worker.mk(class, key).unwrap();
                prop_assert_eq!(Some(oid), one.lookup(class, key));
            }
            merged.merge(worker).unwrap();
        }
        prop_assert_eq!(merged.export_state(), one.export_state());
        prop_assert_eq!(format!("{merged:?}"), format!("{one:?}"));
        for (class, key) in &keys {
            prop_assert_eq!(merged.mk(class, key).unwrap(), one.mk(class, key).unwrap());
        }
    }
}

/// A seeded object holds `h(C, k2)` under key `k1`: minting `k2` is a
/// collision, never a probe to another identity. So is merging a worker
/// that minted `k2` into a factory holding the seed, in either direction.
#[test]
fn a_derived_identity_held_by_another_key_is_a_collision() {
    let class = ClassName::new("CountryE");
    let (k1, k2) = (Value::str("France"), Value::str("Spain"));
    let squatter = Oid::new(class.clone(), skolem_id(&class, &k2));
    let mut instance = Instance::new("euro");
    instance
        .insert(squatter.clone(), Value::record([("name", k1.clone())]))
        .unwrap();
    let spec = KeySpec::new().with_key("CountryE", KeyExpr::path("name"));

    let mut seeded = SkolemFactory::new();
    seeded.seed_from_instance(&class, &spec, &instance).unwrap();
    assert_eq!(seeded.mk(&class, &k1).unwrap(), squatter);
    let err = seeded.mk(&class, &k2).unwrap_err();
    assert!(matches!(err, ModelError::SkolemCollision(_)), "{err}");
    assert_eq!(seeded.count(&class), 1, "a collision records nothing");

    let mut worker = SkolemFactory::new();
    assert_eq!(worker.mk(&class, &k2).unwrap(), squatter);
    let err = seeded.clone().merge(worker.clone()).unwrap_err();
    assert!(matches!(err, ModelError::SkolemCollision(_)), "{err}");
    let err = worker.merge(seeded).unwrap_err();
    assert!(matches!(err, ModelError::SkolemCollision(_)), "{err}");
}
