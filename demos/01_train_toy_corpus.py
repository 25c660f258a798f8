"""Train a small SAVAE on a synthetic two-topic corpus.

Walks through the core loop by hand: raw text in, vocabulary out,
encoded documents into the trainer, ELBO and perplexity printed per
epoch, checkpoint written at the end. Runs in a few seconds on a
laptop CPU.
"""

from pathlib import Path

from savae import corpus, training
from savae.model import ModelConfig

# ---------------------------------------------------------------------
# A toy corpus: two "topics" with disjoint content words plus shared
# filler. Real runs would point corpus.load_corpus at a directory tree.
# ---------------------------------------------------------------------

PETS = [
    "the cat sat on the mat and purred at the other cat",
    "dogs and cats chase each other around the garden every day",
    "my old dog sleeps on the mat beside the cat",
    "the kitten and the puppy play near the garden gate",
    "a cat watched the dog bury a bone under the tree",
]
SPACE = [
    "the rocket reached orbit and released the small satellite",
    "orbital mechanics determine when the satellite passes overhead",
    "engineers fired the rocket engine to circularize the orbit",
    "the satellite scanned the planet surface from low orbit",
    "a telescope on the satellite watched the distant planet",
]

pairs = [(text, {"rec.pets"}) for text in PETS]
pairs += [(text, {"sci.space"}) for text in SPACE]

split = corpus.build_split(pairs, [], max_vocab=50, seed=2)
print(f"vocabulary: {len(split.vocabulary)} types")
print(f"training documents: {len(split.train)}")
print("most frequent words:", split.vocabulary.tokens[:8])

# ---------------------------------------------------------------------
# Model and trainer configuration. The defaults mirror a much larger
# experiment; here everything is shrunk so the run finishes quickly.
# ---------------------------------------------------------------------

model_config = ModelConfig(
    mode="savae",
    m=len(split.vocabulary),
    d=4,
    k=3,
    encoder_layers=(16,),
)
train_config = training.TrainConfig(
    learning_rate=0.005,
    epochs=30,
    batch_size=5,
    seed=2,
    checkpoint_every=0,
)

params, log = training.train(split, model_config, train_config)

print("\nepoch  elbo/doc   perplexity")
for rec in log.records[::5] + [log.records[-1]]:
    print(f"{rec.epoch:5d}  {rec.elbo:9.3f}  {rec.perplexity:9.2f}")

# The bound should improve monotonically-ish; perplexity drops well
# below the vocabulary size (the uniform-model value) as it learns.

out = Path("demo_out")
out.mkdir(exist_ok=True)
training.save_checkpoint(params, model_config, out / "toy_model.savm")
corpus.save_corpus_file(split, out / "toy_corpus.savc")
print(f"\nwrote {out / 'toy_model.savm'} and {out / 'toy_corpus.savc'}")
