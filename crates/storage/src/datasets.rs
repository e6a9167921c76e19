//! Emerging-dataset catalog (Table I).
//!
//! These descriptors parameterise the workload generators: the DHL use cases
//! all revolve around moving a known number of bytes, so a dataset here is a
//! name, a size and a category — plus a sharding helper that splits it into
//! cart-sized pieces.

use dhl_units::{Bytes, BytesPerSecond};

/// Category of a large dataset (Table I's "Type" column).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum DatasetKind {
    /// Image corpora (LAION-5B).
    Images,
    /// Video corpora (YouTube-8M).
    Videos,
    /// Text / NLP corpora (MassiveText).
    Nlp,
    /// Web crawls (Common Crawl).
    WebCrawl,
    /// ML training sets (Meta's DLRM data).
    MachineLearning,
    /// Genomics archives (NIH / GSA).
    Genomics,
    /// Physics experiment streams (LHC CMS).
    Physics,
    /// General big-data ingest.
    BigData,
}

/// A named dataset with its published size.
#[derive(Clone, PartialEq, Debug)]
pub struct Dataset {
    /// Published name.
    pub name: std::borrow::Cow<'static, str>,
    /// Total size in bytes.
    pub size: Bytes,
    /// Category.
    pub kind: DatasetKind,
}

impl Dataset {
    /// Splits the dataset into `chunk`-sized shards; the last shard holds
    /// the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero bytes.
    pub fn shards(&self, chunk: Bytes) -> impl Iterator<Item = Bytes> {
        assert!(!chunk.is_zero(), "shard size must be non-zero");
        let full = self.size.as_u64() / chunk.as_u64();
        let rem = self.size.as_u64() % chunk.as_u64();
        (0..full)
            .map(move |_| chunk)
            .chain((rem > 0).then_some(Bytes::new(rem)))
    }
}

/// LAION-5B: 5.6 billion images, 250 TB (Table I).
#[must_use]
pub fn laion_5b() -> Dataset {
    Dataset {
        name: "LAION-5B".into(),
        size: Bytes::from_terabytes(250.0),
        kind: DatasetKind::Images,
    }
}

/// Common Crawl: > 9 PB of web crawl (Table I).
#[must_use]
pub fn common_crawl() -> Dataset {
    Dataset {
        name: "Common Crawl".into(),
        size: Bytes::from_petabytes(9.0),
        kind: DatasetKind::WebCrawl,
    }
}

/// Meta's 29 PB DLRM training dataset — the paper's headline workload.
#[must_use]
pub fn meta_dlrm_29pb() -> Dataset {
    Dataset {
        name: "Meta ML (DLRM)".into(),
        size: Bytes::from_petabytes(29.0),
        kind: DatasetKind::MachineLearning,
    }
}

/// NIH "All of Us" + GSA genomics: 17 PB (Table I).
#[must_use]
pub fn genomics_17pb() -> Dataset {
    Dataset {
        name: "NIH + GSA Genomics".into(),
        size: Bytes::from_petabytes(17.0),
        kind: DatasetKind::Genomics,
    }
}

/// LHC CMS detector raw output rate: 150 TB/s (Table I).
#[must_use]
pub fn lhc_cms_rate() -> BytesPerSecond {
    BytesPerSecond::from_terabytes_per_second(150.0)
}

/// Meta's daily new data: 4 PB/day (Table I).
#[must_use]
pub fn meta_daily_ingest() -> Bytes {
    Bytes::from_petabytes(4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_sizes() {
        assert_eq!(laion_5b().size.terabytes(), 250.0);
        assert_eq!(meta_dlrm_29pb().size.petabytes(), 29.0);
        assert_eq!(genomics_17pb().size.petabytes(), 17.0);
        assert!(common_crawl().size.petabytes() >= 9.0);
        assert_eq!(lhc_cms_rate().terabytes_per_second(), 150.0);
        assert_eq!(meta_daily_ingest().petabytes(), 4.0);
    }

    #[test]
    fn shards_cover_dataset_exactly() {
        let d = meta_dlrm_29pb();
        let chunk = Bytes::from_terabytes(256.0);
        let shards: Vec<Bytes> = d.shards(chunk).collect();
        assert_eq!(shards.len(), 114); // 113 full + 1 remainder
        let total: Bytes = shards.iter().sum();
        assert_eq!(total, d.size);
        assert!(shards[..113].iter().all(|s| *s == chunk));
        assert!(shards[113] < chunk);
    }

    #[test]
    fn exact_multiple_has_no_remainder_shard() {
        let d = Dataset {
            name: "test".into(),
            size: Bytes::from_terabytes(512.0),
            kind: DatasetKind::BigData,
        };
        let shards: Vec<Bytes> = d.shards(Bytes::from_terabytes(256.0)).collect();
        assert_eq!(shards.len(), 2);
        assert!(shards.iter().all(|s| s.terabytes() == 256.0));
    }

    #[test]
    #[should_panic(expected = "shard size must be non-zero")]
    fn zero_shard_panics() {
        let _ = laion_5b().shards(Bytes::ZERO).count();
    }
}
