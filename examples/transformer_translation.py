"""Train the seq2seq Transformer with ADA-GP on synthetic translation.

The paper's §6.4 workload: a Transformer with 3 encoder and 3 decoder
layers on a translation task (Multi30k stands in for our synthetic
reverse+shift corpus).  Trains with BP and with ADA-GP, reports token
accuracy and BLEU, and shows a few decoded sentences.

Run:  python examples/transformer_translation.py  (takes a few minutes)
"""

import numpy as np

from repro.core import HeuristicSchedule, adagp_engine, bp_engine
from repro.data.translation import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    synthetic_translation,
    teacher_forcing,
)
from repro.experiments.table2_transformer import evaluate_bleu, token_accuracy
from repro.models import Seq2SeqTransformer
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import Adam, SGD


def train(use_adagp: bool, train_set, val_set, epochs: int):
    model = Seq2SeqTransformer(
        train_set.src_vocab, train_set.tgt_vocab,
        d_model=32, num_heads=2, d_ff=64, rng=np.random.default_rng(1),
    )
    loss = CrossEntropyLoss(ignore_index=PAD_ID)
    optimizer = Adam(model.parameters(), lr=2e-3)
    if use_adagp:
        engine = adagp_engine(
            model, loss, optimizer=optimizer,
            gp_optimizer=SGD(model.parameters(), lr=2e-3, momentum=0.9),
            metric_fn=token_accuracy, plateau_scheduler=False,
            schedule=HeuristicSchedule(warmup_epochs=10),
        )
    else:
        engine = bp_engine(
            model, loss, optimizer=optimizer, metric_fn=token_accuracy,
            plateau_scheduler=False,
        )
    history = engine.fit(
        teacher_forcing(train_set.epochs(32, 2)),
        teacher_forcing(val_set.epochs(64)),
        epochs=epochs,
    )
    return model, history


def main() -> None:
    train_set = synthetic_translation(
        num_sentences=768, content_vocab=12, max_len=6, seed=0
    )
    val_set = synthetic_translation(
        num_sentences=64, content_vocab=12, max_len=6, seed=100
    )

    print("Training baseline (BP, Adam)...")
    bp_model, bp_hist = train(False, train_set, val_set, epochs=60)
    print(
        f"BP      : token acc {bp_hist.val_metric[-1]:.1f}%  "
        f"BLEU {evaluate_bleu(bp_model, val_set):.1f}"
    )

    print("Training ADA-GP (more epochs; see Table 2 notes)...")
    ada_model, ada_hist = train(True, train_set, val_set, epochs=110)
    print(
        f"ADA-GP  : token acc {ada_hist.val_metric[-1]:.1f}%  "
        f"BLEU {evaluate_bleu(ada_model, val_set):.1f}"
    )

    print("\nSample decodes (ADA-GP model):")
    decoded = ada_model.greedy_decode(val_set.src[:3], 10, BOS_ID, EOS_ID)
    for src, out, ref in zip(val_set.src[:3], decoded, val_set.tgt[:3]):
        src_tokens = [int(t) for t in src if t != PAD_ID]
        out_tokens = [int(t) for t in out[1:] if t not in (EOS_ID, PAD_ID)]
        ref_tokens = [int(t) for t in ref if t not in (BOS_ID, EOS_ID, PAD_ID)]
        print(f"  src {src_tokens} -> {out_tokens} (ref {ref_tokens})")


if __name__ == "__main__":
    main()
