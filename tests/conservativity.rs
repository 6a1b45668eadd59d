//! Experiment E8: property-based conservativity check (Theorem 5.7).
//!
//! For random databases and a family of `1↦1` queries: the direct Figure-3
//! semantics, the general Figure-6 translation evaluated relationally, and
//! the Section-5.3 optimized translation all produce the same answer.

use datagen::{random_world_set, RandomSpec};
use proptest::prelude::*;
use relalg::{attrs, Catalog, Pred, Relation, Schema, Value};
use worldset::{World, WorldSet};
use wsa::{eval_named, Query};
use wsa_inlined::{run_general, translate_complete, translate_opt_complete, InlinedRep};

fn spec() -> RandomSpec {
    RandomSpec {
        schemas: vec![vec!["A", "B"], vec!["C", "D"]],
        worlds: 1,
        max_tuples: 6,
        domain: 4,
    }
}

fn multi_spec() -> RandomSpec {
    RandomSpec {
        schemas: vec![vec!["A", "B"]],
        worlds: 4,
        max_tuples: 4,
        domain: 3,
    }
}

/// Four distinct worlds over `R0(A, B)`, each with 16 distinct `A` and 16
/// distinct `B` values in 32 rows: a choice on `A` then on `B` has an
/// implicit-world estimate of 4 × 16 × 16 = 1024, while the Figure-3
/// semantics materializes only 4 × 16 × 2 worlds.
fn large_estimate_world_set(seed: u64) -> WorldSet {
    let worlds = (0..4u64).map(|w| {
        let rows = (0..32u64).map(|i| {
            let a = i % 16;
            let b = (a.wrapping_mul(seed | 1) + (i / 16) * 5 + w) % 16;
            vec![Value::Int(a as i64), Value::Int(b as i64)]
        });
        World::new(vec![
            Relation::from_rows(Schema::of(&["A", "B"]), rows).unwrap()
        ])
    });
    WorldSet::from_worlds(vec!["R0".to_string()], worlds.collect::<Vec<_>>()).unwrap()
}

/// A family of complete-to-complete queries exercising every translated
/// operator.
fn query_family() -> Vec<Query> {
    let r = || Query::rel("R0");
    let s = || Query::rel("R1");
    vec![
        // cert / poss over choice chains.
        r().choice(attrs(&["A"])).project(attrs(&["B"])).cert(),
        r().choice(attrs(&["A"])).project(attrs(&["B"])).poss(),
        r().choice(attrs(&["A", "B"])).cert(),
        r().choice(attrs(&["A"]))
            .choice(attrs(&["B"]))
            .project(attrs(&["B"]))
            .cert(),
        // selections between choices (empty-world paths).
        r().choice(attrs(&["A"]))
            .select(Pred::eq_const("B", 1))
            .project(attrs(&["B"]))
            .cert(),
        // grouping.
        r().choice(attrs(&["A"]))
            .poss_group(attrs(&["B"]), attrs(&["A", "B"]))
            .poss(),
        r().choice(attrs(&["A"]))
            .cert_group(attrs(&["B"]), attrs(&["B"]))
            .cert(),
        // binary operators under closure.
        r().choice(attrs(&["A"]))
            .product(s().choice(attrs(&["C"])))
            .project(attrs(&["B", "D"]))
            .poss(),
        r().choice(attrs(&["A"])).union(r()).cert(),
        r().difference(r().choice(attrs(&["A"]))).poss(),
        r().choice(attrs(&["A"]))
            .intersect(r().choice(attrs(&["B"])))
            .cert(),
        // pure relational queries pass through.
        r().select(Pred::eq_attr("A", "B")).project(attrs(&["A"])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both 1↦1 translations agree with the direct semantics on random
    /// complete databases.
    #[test]
    fn complete_translations_agree(seed in any::<u64>()) {
        let ws = random_world_set(seed, &spec());
        let world = ws.the_world().expect("single world");
        let mut catalog = Catalog::new();
        catalog.put("R0", world.rel(0).clone());
        catalog.put("R1", world.rel(1).clone());
        let names = vec!["R0".to_string(), "R1".to_string()];
        let base = |n: &str| catalog.schema_of(n);

        for q in query_family() {
            let direct = eval_named(&q, &ws, "Ans").unwrap();
            let expected = direct.iter().next().unwrap().last().clone();

            let general = translate_complete(&q, &base, &names).unwrap();
            prop_assert_eq!(
                &*catalog.eval(&general).unwrap(), &expected,
                "general translation differs for {}", q
            );

            let opt = translate_opt_complete(&q, &base).unwrap();
            prop_assert_eq!(
                &*catalog.eval(&opt).unwrap(), &expected,
                "optimized translation differs for {}", q
            );

            let simplified = relalg::simplify(&opt, &base).unwrap();
            prop_assert_eq!(
                &*catalog.eval(&simplified).unwrap(), &expected,
                "simplified plan differs for {}", q
            );
        }
    }

    /// The general translation also reproduces full world-sets (m↦m) on
    /// random multi-world inputs.
    #[test]
    fn general_translation_reproduces_world_sets(seed in any::<u64>()) {
        let ws: WorldSet = random_world_set(seed, &multi_spec());
        let rep = InlinedRep::encode(&ws).unwrap();
        let queries = vec![
            Query::rel("R0").choice(attrs(&["A"])),
            Query::rel("R0").project(attrs(&["B"])).cert(),
            Query::rel("R0").poss_group(attrs(&["A"]), attrs(&["A", "B"])),
            Query::rel("R0").cert_group(attrs(&["A"]), attrs(&["B"])),
            Query::rel("R0").choice(attrs(&["B"])).poss(),
        ];
        // One input at the size where factorization would be routed.
        let wide = large_estimate_world_set(seed);
        let wide_rep = InlinedRep::encode(&wide).unwrap();
        let wide_q = Query::rel("R0")
            .choice(attrs(&["A"]))
            .choice(attrs(&["B"]))
            .project(attrs(&["B"]))
            .cert();
        prop_assert!(wsa::plan_query(&wide_q, &wide).peak >= 1024);
        let inputs = queries
            .into_iter()
            .map(|q| (q, &ws, &rep))
            .chain([(wide_q, &wide, &wide_rep)]);
        for (q, ws, rep) in inputs {
            let direct = eval_named(&q, ws, "Ans").unwrap();
            let translated = run_general(&q, rep, "Ans").unwrap();
            prop_assert_eq!(&translated, &direct, "translation differs for {}", q);
        }
    }

    /// Polynomial size: the translated plan's DAG grows linearly in query
    /// size for a choice chain (Theorem 5.7's size remark).
    #[test]
    fn translation_size_linear_in_query(depth in 1usize..6) {
        let schema = |n: &str| (n == "R0").then(|| Schema::of(&["A", "B"]));
        let mut q = Query::rel("R0");
        for _ in 0..depth {
            q = q.choice(attrs(&["A"]));
        }
        let q = q.project(attrs(&["B"])).cert();
        let expr = translate_complete(&q, &schema, &["R0".to_string()]).unwrap();
        prop_assert!(expr.dag_size() <= 12 + 10 * depth);
    }
}
