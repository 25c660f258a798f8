"""Ablation demo: the local-context channel versus the plain baseline.

Trains the same corpus twice, once in "savae" mode (decoder sees the
global latent z plus a local window context h) and once in "nvdm" mode
(z alone), then compares held-out perplexity and retrieval precision.
At this toy scale the gap is noisy; the point is the workflow, which is
identical to the full experiment apart from the sizes.
"""

import numpy as np

from savae import corpus, evaluation, inference, training
from savae.model import ModelConfig

TOPICS = {
    "cooking": [
        "simmer the onions in butter until soft then add the rice",
        "the bread dough needs salt water flour and patience",
        "roast the chicken with garlic lemon and fresh herbs",
        "whisk the eggs with sugar before folding in the flour",
        "season the soup with pepper and a pinch of salt",
        "knead the dough and let the bread rise near the oven",
    ],
    "sailing": [
        "trim the mainsail when the wind shifts to the beam",
        "the keel keeps the hull steady in a strong crosswind",
        "we tacked upwind past the buoy and eased the jib",
        "drop the anchor in the lee of the island before dusk",
        "the tide and the wind decide when the harbor is safe",
        "hoist the spinnaker downwind and watch the mast bend",
    ],
}

pairs = [(t, {name}) for name, texts in TOPICS.items() for t in texts]
split = corpus.build_split(pairs, [], max_vocab=80, seed=2)

results = {}
for mode, lr in (("savae", 0.005), ("nvdm", 0.01)):
    model_config = ModelConfig(
        mode=mode, m=len(split.vocabulary), d=4, k=3, encoder_layers=(16,)
    )
    train_config = training.TrainConfig(
        learning_rate=lr, epochs=40, batch_size=6, seed=2, checkpoint_every=0,
    )
    params, log = training.train(split, model_config, train_config)

    _, ppl = inference.evaluate_bound(split.train, params, model_config, samples=20, seed=7)
    reps = inference.represent_batch(split.train, params, model_config)
    vectors = np.stack([r.vector for r in reps])
    label_sets = [r.labels for r in reps]
    curve = evaluation.retrieval_pr(vectors, label_sets, vectors, label_sets, "exact")
    mask = [i for i, r in enumerate(curve.recall) if 0.01 <= r <= 0.5]
    mean_prec = float(np.mean(curve.precision[mask]))
    db_mean, _ = evaluation.davies_bouldin(vectors, [min(s) for s in label_sets])
    results[mode] = (ppl, mean_prec, db_mean)
    print(f"{mode:6s}  perplexity {ppl:7.2f}   "
          f"precision@(0.01..0.5) {mean_prec:.3f}   davies_bouldin {db_mean:.3f}")

sav, nv = results["savae"], results["nvdm"]
print()
print("local context helps retrieval here:" ,
      "yes" if sav[1] > nv[1] else "no (toy-scale noise)")
print("local context tightens clusters here:",
      "yes" if sav[2] < nv[2] else "no (toy-scale noise)")
