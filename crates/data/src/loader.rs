//! Mini-batching with padding and masks.

use rand::seq::SliceRandom;

use dar_tensor::{DarError, DarResult, Rng, Tensor};
use dar_text::vocab::PAD;

use crate::review::Review;

/// One padded mini-batch.
pub struct Batch {
    /// Padded token ids, `batch` rows of equal length.
    pub ids: Vec<Vec<usize>>,
    /// `[b, l]` float mask: 1 for real tokens, 0 for padding.
    pub mask: Tensor,
    /// Target labels.
    pub labels: Vec<usize>,
    /// Padded rationale annotations (false on padding).
    pub rationales: Vec<Vec<bool>>,
    /// Original (unpadded) lengths.
    pub lengths: Vec<usize>,
}

impl Batch {
    /// Assemble a batch from reviews, padding to the longest.
    ///
    /// Errors with [`DarError::EmptyBatch`] on an empty slice. Token ids
    /// are *not* validated here — use [`Self::from_reviews_checked`] when
    /// the data comes from outside the trusted synthetic generators.
    pub fn from_reviews(reviews: &[&Review]) -> DarResult<Batch> {
        if reviews.is_empty() {
            return Err(DarError::EmptyBatch);
        }
        Ok(Self::build(reviews))
    }

    /// Assemble a batch and validate every review: token ids against the
    /// vocabulary size (so a malformed review can never cause an
    /// out-of-bounds embedding lookup downstream) and non-emptiness (an
    /// empty review would contribute an all-zero mask row that models turn
    /// into NaN pooling outputs).
    pub fn from_reviews_checked(reviews: &[&Review], vocab_size: usize) -> DarResult<Batch> {
        Self::from_reviews_bounded(reviews, vocab_size, usize::MAX)
    }

    /// [`Self::from_reviews_checked`] with a per-review length cap — the
    /// admission path for untrusted (serving) input, where an over-length
    /// review must be rejected with a typed error before it forces a huge
    /// padded batch.
    pub fn from_reviews_bounded(
        reviews: &[&Review],
        vocab_size: usize,
        max_len: usize,
    ) -> DarResult<Batch> {
        if reviews.is_empty() {
            return Err(DarError::EmptyBatch);
        }
        let mut position = 0usize;
        for r in reviews {
            if r.ids.is_empty() {
                return Err(DarError::EmptyInput);
            }
            if r.ids.len() > max_len {
                return Err(DarError::InputTooLong {
                    len: r.ids.len(),
                    cap: max_len,
                });
            }
            for &token in &r.ids {
                if token >= vocab_size {
                    return Err(DarError::TokenOutOfRange {
                        position,
                        token,
                        vocab: vocab_size,
                    });
                }
                position += 1;
            }
        }
        Ok(Self::build(reviews))
    }

    /// Infallible assembly; callers guarantee `reviews` is non-empty.
    fn build(reviews: &[&Review]) -> Batch {
        let max_len = reviews.iter().map(|r| r.len()).max().unwrap_or(1).max(1);
        let b = reviews.len();
        let mut ids = Vec::with_capacity(b);
        let mut mask = vec![0.0f32; b * max_len];
        let mut rationales = Vec::with_capacity(b);
        let mut labels = Vec::with_capacity(b);
        let mut lengths = Vec::with_capacity(b);
        for (i, r) in reviews.iter().enumerate() {
            let mut row = r.ids.clone();
            let mut rat = r.rationale.clone();
            for t in 0..r.len() {
                mask[i * max_len + t] = 1.0;
            }
            row.resize(max_len, PAD);
            rat.resize(max_len, false);
            ids.push(row);
            rationales.push(rat);
            labels.push(r.label);
            lengths.push(r.len());
        }
        Batch {
            ids,
            mask: Tensor::new(mask, &[b, max_len]),
            labels,
            rationales,
            lengths,
        }
    }

    /// Batch size.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Padded sequence length.
    pub fn seq_len(&self) -> usize {
        self.ids.first().map(|r| r.len()).unwrap_or(0)
    }
}

/// Shuffled mini-batch iterator over a review slice.
pub struct BatchIter<'a> {
    reviews: &'a [Review],
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl<'a> BatchIter<'a> {
    /// Shuffled batches (training).
    pub fn shuffled(reviews: &'a [Review], batch_size: usize, rng: &mut Rng) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..reviews.len()).collect();
        order.shuffle(rng);
        BatchIter {
            reviews,
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// In-order batches (evaluation).
    pub fn sequential(reviews: &'a [Review], batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        BatchIter {
            reviews,
            order: (0..reviews.len()).collect(),
            batch_size,
            cursor: 0,
        }
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Batch;

    fn next(&mut self) -> Option<Batch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let rows: Vec<&Review> = self.order[self.cursor..end]
            .iter()
            .map(|&i| &self.reviews[i])
            .collect();
        self.cursor = end;
        // `cursor < order.len()` guarantees a non-empty chunk.
        Some(Batch::build(&rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reviews() -> Vec<Review> {
        (0..5)
            .map(|i| Review {
                ids: vec![10 + i; i + 1],
                label: i % 2,
                rationale: vec![true; i + 1],
                first_sentence_end: 1,
            })
            .collect()
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        assert!(matches!(
            Batch::from_reviews(&[]),
            Err(DarError::EmptyBatch)
        ));
        assert!(matches!(
            Batch::from_reviews_checked(&[], 100),
            Err(DarError::EmptyBatch)
        ));
    }

    #[test]
    fn checked_assembly_rejects_out_of_vocab_tokens() {
        let good = Review {
            ids: vec![3, 4],
            label: 0,
            rationale: vec![true, false],
            first_sentence_end: 1,
        };
        let bad = Review {
            ids: vec![3, 250],
            label: 1,
            rationale: vec![false, true],
            first_sentence_end: 1,
        };
        assert!(Batch::from_reviews_checked(&[&good], 10).is_ok());
        match Batch::from_reviews_checked(&[&good, &bad], 10) {
            Err(DarError::TokenOutOfRange {
                position,
                token,
                vocab,
            }) => {
                assert_eq!((position, token, vocab), (3, 250, 10));
            }
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("out-of-vocab token accepted"),
        }
    }

    #[test]
    fn checked_assembly_rejects_empty_and_overlength_reviews() {
        let good = Review {
            ids: vec![3, 4],
            label: 0,
            rationale: vec![true, false],
            first_sentence_end: 1,
        };
        let empty = Review {
            ids: vec![],
            label: 0,
            rationale: vec![],
            first_sentence_end: 1,
        };
        assert!(matches!(
            Batch::from_reviews_checked(&[&good, &empty], 10),
            Err(DarError::EmptyInput)
        ));
        let long = Review {
            ids: vec![3; 9],
            label: 1,
            rationale: vec![false; 9],
            first_sentence_end: 1,
        };
        assert!(matches!(
            Batch::from_reviews_bounded(&[&good, &long], 10, 4),
            Err(DarError::InputTooLong { len: 9, cap: 4 })
        ));
        assert!(Batch::from_reviews_bounded(&[&good, &long], 10, 16).is_ok());
    }

    #[test]
    fn padding_and_mask() {
        let rs = reviews();
        let refs: Vec<&Review> = rs.iter().collect();
        let b = Batch::from_reviews(&refs).unwrap();
        assert_eq!(b.seq_len(), 5);
        assert_eq!(b.ids[0], vec![10, 0, 0, 0, 0]);
        let m = b.mask.to_vec();
        assert_eq!(&m[..5], &[1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(&m[20..], &[1.0; 5]);
        assert!(!b.rationales[0][1], "padding must not be annotated");
    }

    #[test]
    fn sequential_iter_covers_all_rows_once() {
        let rs = reviews();
        let total: usize = BatchIter::sequential(&rs, 2).map(|b| b.len()).sum();
        assert_eq!(total, 5);
        let sizes: Vec<usize> = BatchIter::sequential(&rs, 2).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn shuffled_iter_is_a_permutation() {
        let rs = reviews();
        let mut rng = dar_tensor::rng(0);
        let mut seen: Vec<usize> = BatchIter::shuffled(&rs, 2, &mut rng)
            .flat_map(|b| b.lengths.clone())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn shuffle_depends_on_seed() {
        let rs = reviews();
        let a: Vec<usize> = BatchIter::shuffled(&rs, 5, &mut dar_tensor::rng(1))
            .flat_map(|b| b.lengths.clone())
            .collect();
        let b: Vec<usize> = BatchIter::shuffled(&rs, 5, &mut dar_tensor::rng(2))
            .flat_map(|b| b.lengths.clone())
            .collect();
        assert_ne!(a, b, "different seeds produced identical order (unlucky?)");
    }
}
