//! Online delta ingestion for the serving engine.
//!
//! A [`Recommender`](crate::Recommender) built with
//! [`Recommender::from_inference_online`](crate::Recommender::from_inference_online)
//! owns the frozen encoder ([`InferenceModel`]) alongside its cached tables
//! and can ingest [`GraphDelta`](cdrib_graph::GraphDelta)s: the seen-item
//! graphs absorb the new interactions, the encoder re-encodes only the
//! affected entities, and the served embedding tables are patched **behind a
//! copy-on-write epoch swap** — new values are written into a shadow copy of
//! the affected tables, which then replaces the active table in one
//! `mem::swap`, so a reader holding the engine (e.g. the pool workers
//! inside a batch) can never observe a torn, half-patched table.
//! Rust's `&mut` exclusivity already serialises updates against batches;
//! the shadow swap keeps the guarantee structural rather than borrowing it
//! from the checker, and gives each published table state an epoch number.
//!
//! The shadow lags the active table by exactly one delta: each apply first
//! catches the shadow up on the rows the *previous* swap left stale, then
//! writes the new rows, then swaps. Costs one extra copy of the affected
//! domain's tables and O(dirty rows) copies per delta — never a full-table
//! rebuild.

use crate::error::{Result, ServeError};
use cdrib_core::InferenceModel;
use cdrib_data::DomainId;
use cdrib_eval::EmbeddingScorer;
use cdrib_graph::DeltaEffect;
use cdrib_tensor::{QuantizedTable, Tensor};

/// Receipt of one [`Recommender::apply_delta`](crate::Recommender::apply_delta).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The table epoch the delta published (monotonically increasing).
    pub epoch: u64,
    /// Users appended to the domain.
    pub users_added: usize,
    /// Items appended to the domain (they join the scored catalogue
    /// immediately).
    pub items_added: usize,
    /// Edges inserted into the seen-item graph.
    pub edges_added: usize,
    /// Edges skipped as duplicates.
    pub duplicate_edges: usize,
    /// Edges retracted from the seen-item graph (explicit removals plus
    /// edges dropped by erasures and delistings).
    pub edges_removed: usize,
    /// Removal requests naming an interaction not present — counted no-ops.
    pub missing_edges: usize,
    /// Users erased (tombstoned with zeroed embedding rows).
    pub users_erased: usize,
    /// Items delisted (tombstoned catalogue slots excluded from top-K).
    pub items_delisted: usize,
    /// User embedding rows re-encoded and patched.
    pub users_reencoded: usize,
    /// Item embedding rows re-encoded and patched.
    pub items_reencoded: usize,
    /// Sequence number the delta was durably logged under, when the engine
    /// carries a write-ahead log (see [`crate::wal`]); `None` for
    /// memory-only engines.
    pub wal_seq: Option<u64>,
}

/// The updater a delta-capable recommender carries: the frozen encoder with
/// its incremental caches, reusable effect storage, and the shadow tables of
/// the epoch swap.
pub(crate) struct OnlineUpdater {
    pub(crate) inference: InferenceModel,
    /// Reusable receipt storage for graph applies.
    pub(crate) effect: DeltaEffect,
    /// Lazily materialised shadow of each served table
    /// (`x_users, x_items, y_users, y_items`).
    shadow: [Option<Tensor>; 4],
    /// Rows each shadow is missing relative to its active table (the rows
    /// the previous swap patched).
    pending: [Vec<u32>; 4],
    /// Shadow/pending state of the int8 item-table mirrors (`x_items`,
    /// `y_items`), driven by the same protocol whenever the engine carries
    /// quantised tables.
    quant_shadow: [Option<QuantizedTable>; 2],
    quant_pending: [Vec<u32>; 2],
}

/// Slot of a domain's user/item table in the shadow/pending arrays.
fn slots(domain: DomainId) -> (usize, usize) {
    match domain {
        DomainId::X => (0, 1),
        DomainId::Y => (2, 3),
    }
}

/// Static table names, matching [`EmbeddingScorer`]'s field names.
const TABLE_NAMES: [&str; 4] = ["x_users", "x_items", "y_users", "y_items"];

impl OnlineUpdater {
    pub(crate) fn new(inference: InferenceModel) -> Self {
        OnlineUpdater {
            inference,
            effect: DeltaEffect::new(),
            shadow: [None, None, None, None],
            pending: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            quant_shadow: [None, None],
            quant_pending: [Vec::new(), Vec::new()],
        }
    }

    /// Publishes the encoder's freshly re-encoded rows of `domain` into the
    /// served tables through the shadow-swap protocol described in the
    /// module docs. **Both** tables are validated before the first swap, so
    /// a rejected row leaves the served tables entirely unpublished — never
    /// with one table ahead of the other. Warm calls (shadows materialised,
    /// no row growth) are allocation-free.
    pub(crate) fn patch_tables(
        &mut self,
        scorer: &mut EmbeddingScorer,
        quant_items: Option<&mut QuantizedTable>,
        domain: DomainId,
    ) -> Result<()> {
        let OnlineUpdater {
            inference,
            shadow,
            pending,
            quant_shadow,
            quant_pending,
            ..
        } = self;
        let to_serve = |e: cdrib_core::CoreError| ServeError::Update { detail: e.to_string() };
        let (user_slot, item_slot) = slots(domain);
        let src_users = inference.cached_user_table(domain).map_err(to_serve)?;
        let dirty_users = inference.last_dirty_users(domain).map_err(to_serve)?;
        let src_items = inference.cached_item_table(domain).map_err(to_serve)?;
        let dirty_items = inference.last_dirty_items(domain).map_err(to_serve)?;
        check_finite(TABLE_NAMES[user_slot], src_users, dirty_users)?;
        check_finite(TABLE_NAMES[item_slot], src_items, dirty_items)?;
        let (active_users, active_items) = match domain {
            DomainId::X => (&mut scorer.x_users, &mut scorer.x_items),
            DomainId::Y => (&mut scorer.y_users, &mut scorer.y_items),
        };
        patch_one(
            active_users,
            &mut shadow[user_slot],
            &mut pending[user_slot],
            src_users,
            dirty_users,
        );
        patch_one(
            active_items,
            &mut shadow[item_slot],
            &mut pending[item_slot],
            src_items,
            dirty_items,
        );
        // The int8 mirror follows the same shadow-swap: exactly the dirty
        // re-encoded rows are re-quantised from the fresh f32 rows, so the
        // mirror is always a from-scratch quantisation of the served table.
        if let Some(quant) = quant_items {
            let qslot = match domain {
                DomainId::X => 0,
                DomainId::Y => 1,
            };
            patch_one_quant(
                quant,
                &mut quant_shadow[qslot],
                &mut quant_pending[qslot],
                src_items,
                dirty_items,
            );
        }
        Ok(())
    }
}

/// Serving must never rank on garbage: rejects non-finite incoming rows
/// before anything is published (same invariant the constructor enforces).
fn check_finite(name: &'static str, src: &Tensor, dirty: &[u32]) -> Result<()> {
    for &r in dirty {
        if src.row(r as usize).iter().any(|v| !v.is_finite()) {
            return Err(ServeError::NonFiniteEmbeddings { table: name });
        }
    }
    Ok(())
}

/// One table's shadow-swap publish: catch the shadow up, write the fresh
/// rows, swap it in, remember what the new shadow now lacks. Infallible —
/// validation happens across all tables before the first publish.
fn patch_one(active: &mut Tensor, shadow: &mut Option<Tensor>, pending: &mut Vec<u32>, src: &Tensor, dirty: &[u32]) {
    let shadow = shadow.get_or_insert_with(|| active.clone());
    // 1. Catch up on the rows the previous swap patched into `active`.
    shadow.resize_rows(active.rows());
    for &r in pending.iter() {
        shadow.row_mut(r as usize).copy_from_slice(active.row(r as usize));
    }
    pending.clear();
    // 2. Write this delta's rows (growing for new entities).
    shadow.resize_rows(src.rows());
    for &r in dirty {
        shadow.row_mut(r as usize).copy_from_slice(src.row(r as usize));
    }
    // 3. The epoch swap: the fully patched table becomes active atomically.
    std::mem::swap(active, shadow);
    // 4. The demoted table is now one delta behind.
    pending.extend_from_slice(dirty);
}

/// The int8 counterpart of [`patch_one`]: same catch-up / write / swap /
/// remember protocol over a [`QuantizedTable`], re-quantising the dirty rows
/// from their fresh f32 source. Warm calls (shadow materialised, no row
/// growth) are allocation-free.
fn patch_one_quant(
    active: &mut QuantizedTable,
    shadow: &mut Option<QuantizedTable>,
    pending: &mut Vec<u32>,
    src: &Tensor,
    dirty: &[u32],
) {
    let shadow = shadow.get_or_insert_with(|| active.clone());
    // 1. Catch up on the rows the previous swap patched into `active`.
    shadow.resize_rows(active.rows());
    for &r in pending.iter() {
        shadow.copy_row_from(r as usize, active, r as usize);
    }
    pending.clear();
    // 2. Re-quantise this delta's rows (growing for new entities).
    shadow.resize_rows(src.rows());
    for &r in dirty {
        shadow.requantize_row(r as usize, src.row(r as usize));
    }
    // 3. The epoch swap.
    std::mem::swap(active, shadow);
    // 4. The demoted mirror is now one delta behind.
    pending.extend_from_slice(dirty);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_one_publishes_and_tracks_lag() {
        let mut active = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut shadow = None;
        let mut pending = Vec::new();
        // Delta 1: patch row 1 and grow to 3 rows (row 2 fresh).
        let src = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        patch_one(&mut active, &mut shadow, &mut pending, &src, &[1, 2]);
        assert_eq!(active.rows(), 3);
        assert_eq!(active.row(0), &[1.0, 2.0]);
        assert_eq!(active.row(1), &[30.0, 40.0]);
        assert_eq!(active.row(2), &[50.0, 60.0]);
        assert_eq!(pending, vec![1, 2]);
        // The demoted shadow still holds the pre-delta state.
        assert_eq!(shadow.as_ref().unwrap().rows(), 2);
        assert_eq!(shadow.as_ref().unwrap().row(1), &[3.0, 4.0]);
        // Delta 2: patch row 0; the catch-up must bring rows 1/2 along.
        let src2 = Tensor::from_vec(3, 2, vec![10.0, 20.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        patch_one(&mut active, &mut shadow, &mut pending, &src2, &[0]);
        assert_eq!(active.row(0), &[10.0, 20.0]);
        assert_eq!(active.row(1), &[30.0, 40.0]);
        assert_eq!(active.row(2), &[50.0, 60.0]);
        assert_eq!(pending, vec![0]);
    }

    #[test]
    fn patch_one_quant_tracks_the_f32_table_exactly() {
        // Whatever sequence of deltas runs, the quant mirror must equal a
        // from-scratch quantisation of the post-delta f32 table.
        let initial = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut active = QuantizedTable::from_tensor(&initial);
        let mut shadow = None;
        let mut pending = Vec::new();
        // Delta 1: row 1 changes, row 2 appears.
        let src = Tensor::from_vec(3, 2, vec![0.0, 0.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        patch_one_quant(&mut active, &mut shadow, &mut pending, &src, &[1, 2]);
        let mut want = initial.clone();
        want.resize_rows(3);
        want.row_mut(1).copy_from_slice(&[30.0, 40.0]);
        want.row_mut(2).copy_from_slice(&[50.0, 60.0]);
        assert_eq!(active, QuantizedTable::from_tensor(&want));
        assert_eq!(pending, vec![1, 2]);
        // Delta 2: row 0 changes; catch-up must carry rows 1/2 along.
        let src2 = Tensor::from_vec(3, 2, vec![10.0, 20.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        patch_one_quant(&mut active, &mut shadow, &mut pending, &src2, &[0]);
        want.row_mut(0).copy_from_slice(&[10.0, 20.0]);
        assert_eq!(active, QuantizedTable::from_tensor(&want));
        assert!(active.validate().is_ok());
    }

    #[test]
    fn non_finite_rows_are_rejected_before_any_publish() {
        let mut src = Tensor::ones(2, 2);
        src.set(1, 0, f32::NAN);
        let err = check_finite("y_items", &src, &[1]);
        assert!(matches!(err, Err(ServeError::NonFiniteEmbeddings { table: "y_items" })));
        // Rows outside the dirty set are not inspected.
        check_finite("y_items", &src, &[0]).unwrap();
        check_finite("y_items", &src, &[]).unwrap();
    }
}
