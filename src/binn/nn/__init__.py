from .config import (  # noqa: F401
    LayerSpec,
    NetworkConfig,
    config_hash,
    config_to_text,
    layer,
    mlp_config,
    nin_config,
    parse_config,
)
from .layers import (  # noqa: F401
    BatchNorm,
    BinaryAct,
    Conv2d,
    Dropout,
    ForwardContext,
    Linear,
    QuantAct,
    quantize_k_bit,
    sign_binarize,
)
from .network import Network, accuracy, cross_entropy_grad, softmax  # noqa: F401
from .optim import Adam, SGD, make_optimizer  # noqa: F401
from .train import TrainHistory, backward_and_step, train_network  # noqa: F401
