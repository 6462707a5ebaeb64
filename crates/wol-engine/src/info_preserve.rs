//! Information-preservation analysis (Section 4.3).
//!
//! A transformation is *information preserving* when it is injective: distinct
//! source instances map to distinct target instances. The paper's Example 4.2
//! (the Person/Marriage schema evolution) shows a transformation that is *not*
//! information preserving on arbitrary instances, but *is* on instances
//! satisfying the spouse constraints (C9)–(C11) — constraints that cannot be
//! expressed in standard constraint languages but can in WOL.
//!
//! Exact injectivity over all instances is undecidable; this module provides
//! the empirical check used by the reproduction: transform a family of source
//! instances and verify that non-equivalent sources map to non-equivalent
//! targets. Instances are compared *up to renaming of object identities* via a
//! canonical form that replaces identities by the values reachable from them.

use std::collections::BTreeMap;

use wol_model::{ClassName, Instance, Value};

use crate::Result;

/// A canonical, identity-free description of an instance: for each class, the
/// multiset of object descriptions with identities expanded to the values they
/// reach (up to `depth` dereferences).
pub(crate) type CanonicalForm = BTreeMap<ClassName, Vec<String>>;

fn canonical_value(value: &Value, instance: &Instance, depth: usize) -> String {
    match value {
        Value::Oid(oid) => {
            if depth == 0 {
                format!("<{}>", oid.class())
            } else {
                match instance.value(oid) {
                    Some(inner) => format!(
                        "<{}:{}>",
                        oid.class(),
                        canonical_value(inner, instance, depth - 1)
                    ),
                    None => format!("<{}:dangling>", oid.class()),
                }
            }
        }
        Value::Record(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(l, v)| format!("{l}={}", canonical_value(v, instance, depth)))
                .collect();
            format!("({})", parts.join(","))
        }
        Value::Set(items) => {
            let mut parts: Vec<String> = items
                .iter()
                .map(|v| canonical_value(v, instance, depth))
                .collect();
            parts.sort();
            format!("{{{}}}", parts.join(","))
        }
        Value::List(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|v| canonical_value(v, instance, depth))
                .collect();
            format!("[{}]", parts.join(","))
        }
        Value::Variant(label, payload) => {
            format!("ins_{label}({})", canonical_value(payload, instance, depth))
        }
        other => wol_model::display::render_value(other),
    }
}

/// Compute the canonical form of an instance.
pub fn canonical_form(instance: &Instance, depth: usize) -> CanonicalForm {
    let mut out = CanonicalForm::new();
    for class in instance.populated_classes() {
        let mut descriptions: Vec<String> = instance
            .objects(&class)
            .map(|(_, value)| canonical_value(value, instance, depth))
            .collect();
        descriptions.sort();
        out.insert(class, descriptions);
    }
    out
}

/// Are two instances equivalent up to renaming of object identities (to the
/// chosen dereference depth)?
pub fn instances_equivalent(a: &Instance, b: &Instance, depth: usize) -> bool {
    canonical_form(a, depth) == canonical_form(b, depth)
}

/// The result of an empirical injectivity check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectivityReport {
    /// Number of source instances transformed.
    pub sources: usize,
    /// Pairs of source indices that are distinguishable as sources but mapped
    /// to equivalent targets — witnesses that information was lost.
    pub collisions: Vec<(usize, usize)>,
}

impl InjectivityReport {
    /// True when no collision was found (the transformation is injective on
    /// the tested family).
    pub fn is_injective(&self) -> bool {
        self.collisions.is_empty()
    }
}

/// Empirically check that `transform` is injective on the given family of
/// source instances: every pair of non-equivalent sources must map to
/// non-equivalent targets.
pub fn check_injective<F>(
    sources: &[Instance],
    transform: F,
    depth: usize,
) -> Result<InjectivityReport>
where
    F: Fn(&Instance) -> Result<Instance>,
{
    let mut targets = Vec::with_capacity(sources.len());
    for source in sources {
        targets.push(transform(source)?);
    }
    let source_forms: Vec<CanonicalForm> =
        sources.iter().map(|s| canonical_form(s, depth)).collect();
    let target_forms: Vec<CanonicalForm> =
        targets.iter().map(|t| canonical_form(t, depth)).collect();
    let mut collisions = Vec::new();
    for i in 0..sources.len() {
        for j in (i + 1)..sources.len() {
            let sources_differ = source_forms[i] != source_forms[j];
            let targets_equal = target_forms[i] == target_forms[j];
            if sources_differ && targets_equal {
                collisions.push((i, j));
            }
        }
    }
    Ok(InjectivityReport {
        sources: sources.len(),
        collisions,
    })
}

/// Filter a family of instances to those satisfying the given constraints —
/// the paper's point being that the Person/Marriage transformation is
/// information preserving *on the instances satisfying (C9)–(C11)*.
pub fn satisfying_instances<'a>(
    instances: &'a [Instance],
    constraints: &[&wol_lang::Clause],
) -> Result<Vec<&'a Instance>> {
    let mut out = Vec::new();
    for instance in instances {
        let refs = [instance];
        let dbs = crate::env::Databases::new(&refs);
        let violations = crate::constraints::check_constraints(constraints, &dbs)?;
        if violations.is_empty() {
            out.push(instance);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::Oid;

    fn person_instance(pairs: &[(&str, &str)], extra_single: Option<&str>) -> Instance {
        // People with spouses: each pair (husband, wife) points at each other.
        let mut inst = Instance::new("people");
        let class = ClassName::new("Person");
        let mut oids: Vec<(Oid, Oid)> = Vec::new();
        for (i, (h, w)) in pairs.iter().enumerate() {
            let hid = Oid::new(class.clone(), (i * 2) as u64);
            let wid = Oid::new(class.clone(), (i * 2 + 1) as u64);
            inst.insert(
                hid.clone(),
                Value::record([
                    ("name", Value::str(*h)),
                    ("sex", Value::tag("male")),
                    ("spouse", Value::oid(wid.clone())),
                ]),
            )
            .unwrap();
            inst.insert(
                wid.clone(),
                Value::record([
                    ("name", Value::str(*w)),
                    ("sex", Value::tag("female")),
                    ("spouse", Value::oid(hid.clone())),
                ]),
            )
            .unwrap();
            oids.push((hid, wid));
        }
        if let Some(name) = extra_single {
            let id = Oid::new(class.clone(), 1000);
            inst.insert(
                id.clone(),
                Value::record([
                    ("name", Value::str(name)),
                    ("sex", Value::tag("male")),
                    ("spouse", Value::oid(id)),
                ]),
            )
            .unwrap();
        }
        inst
    }

    #[test]
    fn canonical_form_is_oid_invariant() {
        // The same data with different object identifiers is equivalent.
        let a = person_instance(&[("Adam", "Beth")], None);
        let mut b = Instance::new("people");
        let class = ClassName::new("Person");
        let h = Oid::new(class.clone(), 77);
        let w = Oid::new(class.clone(), 99);
        b.insert(
            h.clone(),
            Value::record([
                ("name", Value::str("Adam")),
                ("sex", Value::tag("male")),
                ("spouse", Value::oid(w.clone())),
            ]),
        )
        .unwrap();
        b.insert(
            w,
            Value::record([
                ("name", Value::str("Beth")),
                ("sex", Value::tag("female")),
                ("spouse", Value::oid(h)),
            ]),
        )
        .unwrap();
        assert!(instances_equivalent(&a, &b, 2));
    }

    #[test]
    fn canonical_form_distinguishes_different_data() {
        let a = person_instance(&[("Adam", "Beth")], None);
        let b = person_instance(&[("Adam", "Carol")], None);
        assert!(!instances_equivalent(&a, &b, 2));
        assert!(!instances_equivalent(
            &a,
            &person_instance(&[("Adam", "Beth")], Some("Dan")),
            2
        ));
    }

    #[test]
    fn depth_zero_hides_referenced_values() {
        let a = person_instance(&[("Adam", "Beth")], None);
        let b = person_instance(&[("Adam", "Carol")], None);
        // At depth 0 spouses are opaque; names still differ though (Beth/Carol
        // appear as top-level objects), so instances differ even at depth 0.
        assert!(!instances_equivalent(&a, &b, 0));
        // But a cycle does not cause non-termination at any depth.
        let _ = canonical_form(&a, 5);
    }

    #[test]
    fn injectivity_detected_for_lossless_transform() {
        // Identity transformation is trivially injective.
        let family = vec![
            person_instance(&[("Adam", "Beth")], None),
            person_instance(&[("Adam", "Carol")], None),
            person_instance(&[("Evan", "Faye"), ("Gus", "Hana")], None),
        ];
        let report = check_injective(&family, |i| Ok(i.clone()), 2).unwrap();
        assert!(report.is_injective());
        assert_eq!(report.sources, 3);
    }

    #[test]
    fn lossy_transform_detected() {
        // A transformation that forgets everyone's spouse maps the two
        // different pairings below to the same target.
        let family = vec![
            person_instance(&[("Adam", "Beth"), ("Carl", "Dana")], None),
            person_instance(&[("Adam", "Dana"), ("Carl", "Beth")], None),
        ];
        let forgetful = |source: &Instance| -> Result<Instance> {
            let mut out = Instance::new("names_only");
            for (oid, value) in source.all_objects() {
                let name = value.project("name").cloned().unwrap();
                let sex = value.project("sex").cloned().unwrap();
                out.insert(oid.clone(), Value::record([("name", name), ("sex", sex)]))?;
            }
            Ok(out)
        };
        let report = check_injective(&family, forgetful, 2).unwrap();
        assert!(!report.is_injective());
        assert_eq!(report.collisions, vec![(0, 1)]);
    }

    #[test]
    fn constraint_filtering_keeps_only_satisfying_instances() {
        // (C11): Y = X.spouse <= Y in Person, X = Y.spouse — spouse is symmetric.
        let c11 = wol_lang::parse_clause("C11: Y = X.spouse <= Y in Person, X = Y.spouse").unwrap();
        let symmetric = person_instance(&[("Adam", "Beth")], None);
        // Break symmetry: Beth's spouse points at herself.
        let mut asymmetric = person_instance(&[("Adam", "Beth")], None);
        let class = ClassName::new("Person");
        let beth = Oid::new(class.clone(), 1);
        let mut beth_value = asymmetric.value(&beth).unwrap().clone();
        if let Value::Record(ref mut fields) = beth_value {
            fields.insert("spouse".into(), Value::oid(beth.clone()));
        }
        asymmetric.update(&beth, beth_value).unwrap();

        let family = vec![symmetric, asymmetric];
        let satisfying = satisfying_instances(&family, &[&c11]).unwrap();
        assert_eq!(satisfying.len(), 1);
    }
}
