use automc_tensor::{Rng, Tensor};
use rand::seq::SliceRandom;

/// An in-memory labelled image set (NCHW, `f32` pixels).
#[derive(Debug, Clone)]
pub struct ImageSet {
    pixels: Vec<f32>,
    labels: Vec<usize>,
    channels: usize,
    height: usize,
    width: usize,
    classes: usize,
}

impl ImageSet {
    /// Assemble from raw parts. `pixels.len()` must equal
    /// `labels.len() · channels · height · width`.
    pub fn new(
        pixels: Vec<f32>,
        labels: Vec<usize>,
        channels: usize,
        height: usize,
        width: usize,
        classes: usize,
    ) -> Self {
        assert_eq!(
            pixels.len(),
            labels.len() * channels * height * width,
            "pixel buffer does not match label count and image dims"
        );
        assert!(labels.iter().all(|&l| l < classes), "label out of range");
        ImageSet { pixels, labels, channels, height, width, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// `(channels, height, width)` of each image.
    pub fn image_dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Labels slice.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One image as a flat pixel slice.
    pub fn image(&self, i: usize) -> &[f32] {
        let item = self.channels * self.height * self.width;
        &self.pixels[i * item..(i + 1) * item]
    }

    /// Gather the given sample indices into an NCHW batch tensor + labels.
    pub fn gather(&self, idxs: &[usize]) -> (Tensor, Vec<usize>) {
        let item = self.channels * self.height * self.width;
        let mut out = Tensor::zeros(&[idxs.len(), self.channels, self.height, self.width]);
        let mut labels = Vec::with_capacity(idxs.len());
        for (bi, &i) in idxs.iter().enumerate() {
            out.data_mut()[bi * item..(bi + 1) * item].copy_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        (out, labels)
    }

    /// A stratified random sample of `fraction` of the data (the paper's
    /// "sample 10% data from D to execute AutoML algorithms" protocol).
    /// Keeps at least one sample per class that is present.
    pub fn sample_fraction(&self, fraction: f32, rng: &mut Rng) -> ImageSet {
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); self.classes];
        for (i, &l) in self.labels.iter().enumerate() {
            per_class[l].push(i);
        }
        let mut keep = Vec::new();
        for bucket in per_class.iter_mut() {
            if bucket.is_empty() {
                continue;
            }
            bucket.shuffle(rng);
            let take = ((bucket.len() as f32 * fraction).round() as usize).max(1);
            keep.extend_from_slice(&bucket[..take.min(bucket.len())]);
        }
        keep.sort_unstable();
        self.subset(&keep)
    }

    /// A new set containing only the given indices.
    pub fn subset(&self, idxs: &[usize]) -> ImageSet {
        let item = self.channels * self.height * self.width;
        let mut pixels = Vec::with_capacity(idxs.len() * item);
        let mut labels = Vec::with_capacity(idxs.len());
        for &i in idxs {
            pixels.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        ImageSet {
            pixels,
            labels,
            channels: self.channels,
            height: self.height,
            width: self.width,
            classes: self.classes,
        }
    }

    /// Shuffled mini-batch iterator for one epoch.
    pub fn batches(&self, batch_size: usize, rng: &mut Rng) -> Batches<'_> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        Batches { set: self, order, batch_size: batch_size.max(1), cursor: 0 }
    }
}

/// Iterator over shuffled mini-batches of an [`ImageSet`].
pub struct Batches<'a> {
    set: &'a ImageSet,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl Iterator for Batches<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idxs = &self.order[self.cursor..end];
        self.cursor = end;
        Some(self.set.gather(idxs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_tensor::rng_from_seed;

    fn tiny_set() -> ImageSet {
        // 6 samples, 1x2x2 images, 3 classes.
        let pixels: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let labels = vec![0, 1, 2, 0, 1, 2];
        ImageSet::new(pixels, labels, 1, 2, 2, 3)
    }

    #[test]
    fn gather_batches_correctly() {
        let s = tiny_set();
        let (batch, labels) = s.gather(&[1, 3]);
        assert_eq!(batch.dims(), &[2, 1, 2, 2]);
        assert_eq!(labels, vec![1, 0]);
        assert_eq!(&batch.data()[0..4], &[4., 5., 6., 7.]);
        assert_eq!(&batch.data()[4..8], &[12., 13., 14., 15.]);
    }

    #[test]
    fn sample_fraction_is_stratified() {
        let s = tiny_set();
        let mut rng = rng_from_seed(1);
        let sub = s.sample_fraction(0.5, &mut rng);
        assert_eq!(sub.len(), 3); // one per class
        let mut classes: Vec<usize> = sub.labels().to_vec();
        classes.sort_unstable();
        assert_eq!(classes, vec![0, 1, 2]);
    }

    #[test]
    fn sample_fraction_keeps_one_per_class_minimum() {
        let s = tiny_set();
        let mut rng = rng_from_seed(2);
        let sub = s.sample_fraction(0.01, &mut rng);
        assert_eq!(sub.len(), 3);
    }

    #[test]
    fn batches_cover_epoch_exactly_once() {
        let s = tiny_set();
        let mut rng = rng_from_seed(3);
        let mut seen = 0;
        for (batch, labels) in s.batches(4, &mut rng) {
            assert_eq!(batch.dims()[0], labels.len());
            seen += labels.len();
        }
        assert_eq!(seen, 6);
    }

    #[test]
    #[should_panic(expected = "pixel buffer")]
    fn new_validates_lengths() {
        ImageSet::new(vec![0.0; 10], vec![0, 1], 1, 2, 2, 2);
    }
}
