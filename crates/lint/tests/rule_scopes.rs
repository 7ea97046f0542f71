//! Every path a rule is scoped to must exist in the workspace. A rule
//! whose include or exclude prefix names a deleted or renamed file
//! silently stops guarding anything, so this fails until the registry is
//! updated with the tree.

use dp_lint::rules::RULES;
use std::path::Path;

#[test]
fn every_rule_scope_prefix_exists_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let missing: Vec<String> = RULES
        .iter()
        .flat_map(|rule| {
            rule.include
                .iter()
                .chain(rule.exclude)
                .map(move |prefix| (rule.id, *prefix))
        })
        .filter(|(_, prefix)| !root.join(prefix).exists())
        .map(|(id, prefix)| format!("{id}: {prefix}"))
        .collect();
    assert!(missing.is_empty(), "stale rule scopes: {missing:?}");
}
