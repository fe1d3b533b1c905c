//! Contextual column embeddings (paper §5.2.1).
//!
//! The paper's future-work observation: profiles built from a column's
//! values alone ignore *context* — "other columns in the same table, user
//! activities, query logs" — that can disambiguate semantically related
//! candidates. This module implements the schema-context part: a context
//! vector is built from the column's own name, its table name, and its
//! sibling column names (all free catalog metadata — no billed scans), and
//! blended with the value embedding:
//!
//! ```text
//! e = normalize( (1 − β) · e_values  +  β · e_context )
//! ```
//!
//! β = 0 reproduces the paper's value-only embedding; small β (0.1–0.3)
//! separates columns with near-identical value sets but different roles
//! (e.g. `ship_city` vs `billing_city` tables) while keeping value overlap
//! dominant. The `ablation_aggregation` bench and the core config's
//! `context_weight` expose this knob.

use crate::model::EmbeddingModel;
use crate::vector::Vector;

/// Schema context of one column: everything embeddable without scanning.
#[derive(Debug, Clone, Default)]
pub struct ColumnContext {
    /// The column's own name.
    pub column_name: String,
    /// The owning table's name.
    pub table_name: String,
    /// Names of the sibling columns in the same table.
    pub siblings: Vec<String>,
}

impl ColumnContext {
    /// Context for a bare column name (no table information).
    pub fn name_only(column_name: impl Into<String>) -> Self {
        Self { column_name: column_name.into(), ..Default::default() }
    }
}

/// Compute the context vector for a column. Weights: the column's own name
/// counts double, table name once, each sibling at `1/√|siblings|` so wide
/// tables don't drown the local names. Returns a unit vector or zero when
/// nothing is embeddable.
pub fn context_vector(model: &dyn EmbeddingModel, context: &ColumnContext) -> Vector {
    let mut acc = Vector::zeros(model.dim());
    let mut any = false;
    let add = |text: &str, weight: f32, acc: &mut Vector, any: &mut bool| {
        // Zero when the name has no token.
        let v = model.embed_text(text);
        if !v.is_zero() {
            acc.add_scaled(&v, weight);
            *any = true;
        }
    };
    add(&context.column_name, 2.0, &mut acc, &mut any);
    add(&context.table_name, 1.0, &mut acc, &mut any);
    if !context.siblings.is_empty() {
        let w = 1.0 / (context.siblings.len() as f32).sqrt();
        for s in &context.siblings {
            add(s, w, &mut acc, &mut any);
        }
    }
    if any {
        acc.normalize();
    }
    acc
}

/// Blend a value embedding with a context vector at weight `beta`,
/// returning a unit vector. Degenerate inputs fall back gracefully: zero
/// context returns the value embedding (and vice versa).
pub fn blend_context(values: &Vector, context: &Vector, beta: f32) -> Vector {
    debug_assert!((0.0..=1.0).contains(&beta));
    if beta <= 0.0 || context.is_zero() {
        return values.clone();
    }
    if values.is_zero() {
        return context.clone();
    }
    let mut out = Vector::zeros(values.dim());
    out.add_scaled(values, 1.0 - beta);
    out.add_scaled(context, beta);
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_embed::{Aggregation, ColumnEmbedder};
    use crate::webtable::WebTableModel;
    use std::sync::Arc;
    use wg_store::Column;

    fn model() -> Arc<WebTableModel> {
        Arc::new(WebTableModel::default_model())
    }

    #[test]
    fn context_vector_is_unit_or_zero() {
        let m = model();
        let ctx = ColumnContext {
            column_name: "customer_id".into(),
            table_name: "orders".into(),
            siblings: vec!["amount".into(), "created_at".into()],
        };
        assert!(context_vector(m.as_ref(), &ctx).is_normalized());
        let empty = ColumnContext::default();
        assert!(context_vector(m.as_ref(), &empty).is_zero());
    }

    #[test]
    fn context_disambiguates_identical_value_sets() {
        // Two columns with the SAME values but different table contexts:
        // value-only embeddings are identical; context separates them.
        let m = model();
        let embedder = ColumnEmbedder::new(m.clone(), Aggregation::default());
        let values = Column::text("city", ["Austin", "Boston", "Chicago"]);
        let e_values = embedder.embed_column(&values);

        let shipping = ColumnContext {
            column_name: "ship_city".into(),
            table_name: "shipments".into(),
            siblings: vec!["carrier".into(), "weight".into()],
        };
        let billing = ColumnContext {
            column_name: "billing_city".into(),
            table_name: "invoices".into(),
            siblings: vec!["amount_due".into(), "tax".into()],
        };
        let a = blend_context(&e_values, &context_vector(m.as_ref(), &shipping), 0.3);
        let b = blend_context(&e_values, &context_vector(m.as_ref(), &billing), 0.3);
        let sim = a.cosine(&b);
        assert!(sim < 0.98, "context failed to separate: {sim}");
        // But both stay close to the value embedding: values dominate.
        assert!(a.cosine(&e_values) > 0.8);
        assert!(b.cosine(&e_values) > 0.8);
    }

    #[test]
    fn beta_zero_is_identity() {
        let m = model();
        let embedder = ColumnEmbedder::new(m.clone(), Aggregation::default());
        let e = embedder.embed_column(&Column::text("c", ["x", "y"]));
        let ctx = context_vector(m.as_ref(), &ColumnContext::name_only("c"));
        assert_eq!(blend_context(&e, &ctx, 0.0), e);
    }

    #[test]
    fn zero_context_falls_back_to_values() {
        let m = model();
        let embedder = ColumnEmbedder::new(m.clone(), Aggregation::default());
        let e = embedder.embed_column(&Column::text("c", ["x"]));
        let z = Vector::zeros(e.dim());
        assert_eq!(blend_context(&e, &z, 0.5), e);
    }

    #[test]
    fn zero_values_fall_back_to_context() {
        let m = model();
        let ctx = context_vector(m.as_ref(), &ColumnContext::name_only("price"));
        let z = Vector::zeros(ctx.dim());
        assert_eq!(blend_context(&z, &ctx, 0.5), ctx);
    }

    #[test]
    fn related_contexts_stay_similar() {
        // Similar contexts should give similar context vectors (the point
        // of using the same embedding space for names and values).
        let m = model();
        let a = context_vector(
            m.as_ref(),
            &ColumnContext {
                column_name: "customer_id".into(),
                table_name: "orders".into(),
                siblings: vec![],
            },
        );
        let b = context_vector(
            m.as_ref(),
            &ColumnContext {
                column_name: "customer_id".into(),
                table_name: "order_items".into(),
                siblings: vec![],
            },
        );
        let c = context_vector(
            m.as_ref(),
            &ColumnContext {
                column_name: "wind_speed".into(),
                table_name: "weather".into(),
                siblings: vec![],
            },
        );
        assert!(a.cosine(&b) > a.cosine(&c) + 0.2);
    }
}
