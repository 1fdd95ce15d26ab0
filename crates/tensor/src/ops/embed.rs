//! Embedding-table row gather with scatter-add backward.

use crate::error::{DarError, DarResult};
use crate::Tensor;

impl Tensor {
    /// Gather rows `ids` from a `[V, E]` table into `[N, E]`.
    ///
    /// Backward scatter-adds the output gradient into the gathered rows —
    /// this is the embedding-lookup op.
    ///
    /// # Panics
    /// Panics if the table is not 2-D or an id is out of range.
    pub fn gather_rows(&self, ids: &[usize]) -> Tensor {
        self.try_gather_rows(ids).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`gather_rows`](Self::gather_rows): a non-2-D table or an
    /// out-of-range id is a typed error instead of a panic.
    pub fn try_gather_rows(&self, ids: &[usize]) -> DarResult<Tensor> {
        let s = self.shape();
        if s.len() != 2 {
            return Err(DarError::InvalidData(format!(
                "gather_rows expects a 2-D table, got {s:?}"
            )));
        }
        let (v_rows, e) = (s[0], s[1]);
        let v = self.values();
        let mut out = Vec::with_capacity(ids.len() * e);
        for &id in ids {
            if id >= v_rows {
                return Err(DarError::InvalidData(format!(
                    "row id {id} out of range for table with {v_rows} rows"
                )));
            }
            out.extend_from_slice(&v[id * e..(id + 1) * e]);
        }
        drop(v);
        let ids_saved: Vec<usize> = ids.to_vec();
        Ok(Tensor::from_op(
            "gather_rows",
            out,
            vec![ids_saved.len(), e],
            vec![self.clone()],
            Box::new(move |g, _, parents| {
                let p = &parents[0];
                if !p.requires_grad() {
                    return;
                }
                let mut gin = vec![0.0f32; v_rows * e];
                for (n, &id) in ids_saved.iter().enumerate() {
                    let dst = &mut gin[id * e..(id + 1) * e];
                    let src = &g[n * e..(n + 1) * e];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += *s;
                    }
                }
                p.accumulate_grad(&gin);
            }),
        ))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::Tensor;

    #[test]
    fn gather_selects_rows() {
        let table = Tensor::new(vec![1., 2., 3., 4., 5., 6.], &[3, 2]);
        let out = table.gather_rows(&[2, 0, 2]);
        assert_eq!(out.shape(), &[3, 2]);
        assert_eq!(out.to_vec(), vec![5., 6., 1., 2., 5., 6.]);
    }

    #[test]
    fn repeated_ids_accumulate_grad() {
        let table = Tensor::param(vec![0.0; 6], &[3, 2]);
        let out = table.gather_rows(&[1, 1, 0]);
        out.sum().backward();
        // Row 1 gathered twice, row 0 once, row 2 never.
        assert_eq!(table.grad_vec().unwrap(), vec![1., 1., 2., 2., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let table = Tensor::new(vec![0.0; 4], &[2, 2]);
        let _ = table.gather_rows(&[5]);
    }

    #[test]
    fn try_gather_rows_returns_typed_errors() {
        let table = Tensor::new(vec![0.0; 4], &[2, 2]);
        assert!(table.try_gather_rows(&[5]).is_err());
        assert!(table.try_gather_rows(&[0, 1]).is_ok());
        let flat = Tensor::new(vec![0.0; 4], &[4]);
        assert!(flat.try_gather_rows(&[0]).is_err());
    }
}
