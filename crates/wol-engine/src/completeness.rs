//! Completeness analysis of transformation programs.
//!
//! "A transformation program Tr is said to be complete iff whenever there is a
//! Tr-transformation of a particular source database instance, there is a
//! unique smallest such Tr-transformation ... In general, if a transformation
//! program is not complete, it is because the programmer has left out some
//! part of the description of the transformation." (Section 3.2)
//!
//! Completeness is undecidable in general (Section 5), so this module provides
//! the practical static analysis Morphase uses to point the programmer at the
//! likely omissions: target classes that nothing creates, and attributes that
//! no clause ever defines.

use std::collections::{BTreeMap, BTreeSet};

use wol_model::{ClassName, Schema, Type};

use crate::normalize::NormalProgram;

/// Report of the completeness analysis of a normalised program against the
/// target schema.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompletenessReport {
    /// Target classes for which no clause creates any object.
    pub uncreated_classes: Vec<ClassName>,
    /// For each class, the required (non-optional) attributes that no clause
    /// defines.
    pub missing_attributes: BTreeMap<ClassName, Vec<String>>,
    /// Classes that have creating clauses but no key, so partial descriptions
    /// cannot be merged deterministically.
    pub unkeyed_classes: Vec<ClassName>,
}

impl CompletenessReport {
    /// True when nothing suspicious was found.
    pub fn is_complete(&self) -> bool {
        self.uncreated_classes.is_empty()
            && self.missing_attributes.is_empty()
            && self.unkeyed_classes.is_empty()
    }

    /// Render a human-readable summary, one finding per line.
    pub fn summary(&self) -> String {
        let mut lines = Vec::new();
        for class in &self.uncreated_classes {
            lines.push(format!("no clause creates objects of class `{class}`"));
        }
        for (class, attrs) in &self.missing_attributes {
            lines.push(format!(
                "class `{class}` is missing definitions for required attributes {attrs:?}"
            ));
        }
        for class in &self.unkeyed_classes {
            lines.push(format!(
                "class `{class}` has creating clauses but no key constraint; partial descriptions \
                 cannot be merged deterministically"
            ));
        }
        if lines.is_empty() {
            "the program completely describes the target".to_string()
        } else {
            lines.join("\n")
        }
    }
}

/// Analyse a normalised program against the target schema.
pub fn check_completeness(normal: &NormalProgram, target_schema: &Schema) -> CompletenessReport {
    let mut report = CompletenessReport::default();
    for (class, ty) in target_schema.classes() {
        let creating = normal.creating_clauses(class);
        if creating.is_empty() {
            report.uncreated_classes.push(class.clone());
            continue;
        }
        // Which attributes does the program define, across all clauses for the class?
        let defined: BTreeSet<&str> = normal
            .clauses
            .iter()
            .filter(|c| &c.class == class)
            .flat_map(|c| c.attrs.keys().map(|label| label.as_str()))
            .collect();
        if let Type::Record(fields) = ty {
            let missing: Vec<String> = fields
                .iter()
                .filter(|(label, field_ty)| {
                    !matches!(field_ty, Type::Optional(_)) && !defined.contains(label.as_str())
                })
                .map(|(label, _)| label.clone())
                .collect();
            if !missing.is_empty() {
                report.missing_attributes.insert(class.clone(), missing);
            }
        }
        if !normal.keys.contains_key(class) && creating.len() > 1 {
            report.unkeyed_classes.push(class.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalize, NormalizeOptions};
    use wol_lang::program::{Program, SchemaBinding};

    fn euro_schema() -> Schema {
        Schema::new("euro").with_class(
            "CountryE",
            Type::record([
                ("name", Type::str()),
                ("language", Type::str()),
                ("currency", Type::str()),
            ]),
        )
    }

    fn target_schema() -> Schema {
        Schema::new("target")
            .with_class(
                "CountryT",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                    ("capital", Type::optional(Type::class("CityT"))),
                ]),
            )
            .with_class("CityT", Type::record([("name", Type::str())]))
    }

    #[test]
    fn complete_program_reported_complete_for_covered_classes() {
        let program = Program::new(
            "p",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             T2: Y in CityT, Y.name = E.name <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C4: Y = Mk_CityT(N) <= Y in CityT, N = Y.name;",
        );
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let report = check_completeness(&normal, &target_schema());
        assert!(report.is_complete(), "{}", report.summary());
        assert!(report.summary().contains("completely describes"));
    }

    #[test]
    fn missing_class_and_attribute_detected() {
        let program = Program::new(
            "p",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            // CityT is never created; CountryT.currency is never defined.
            "T1: X in CountryT, X.name = E.name, X.language = E.language <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;",
        );
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let report = check_completeness(&normal, &target_schema());
        assert!(!report.is_complete());
        assert_eq!(report.uncreated_classes, vec![ClassName::new("CityT")]);
        assert_eq!(
            report.missing_attributes[&ClassName::new("CountryT")],
            vec!["currency".to_string()]
        );
        let summary = report.summary();
        assert!(summary.contains("CityT"));
        assert!(summary.contains("currency"));
    }

    #[test]
    fn optional_attributes_are_not_required() {
        let program = Program::new(
            "p",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             T2: Y in CityT, Y.name = E.name <= E in CountryE;\n\
             C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
             C4: Y = Mk_CityT(N) <= Y in CityT, N = Y.name;",
        );
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let report = check_completeness(&normal, &target_schema());
        // `capital` is optional and undefined — still complete.
        assert!(!report
            .missing_attributes
            .contains_key(&ClassName::new("CountryT")));
    }

    #[test]
    fn unkeyed_class_with_multiple_creators_flagged() {
        let program = Program::new(
            "p",
            vec![SchemaBinding::new(euro_schema())],
            SchemaBinding::new(target_schema()),
        )
        .with_text(
            "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency <= E in CountryE;\n\
             T1b: X in CountryT, X.name = E.name, X.language = E.language, X.currency = \"euro\" <= E in CountryE;",
        );
        let options = NormalizeOptions {
            use_target_keys: false,
            ..NormalizeOptions::default()
        };
        let normal = normalize(&program, &options).unwrap();
        let report = check_completeness(&normal, &target_schema());
        assert!(report.unkeyed_classes.contains(&ClassName::new("CountryT")));
    }
}
